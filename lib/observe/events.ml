(* Structured JSONL event log. One JSON object per line, flushed per
   event so an external tail (or the CI smoke job) sees events as they
   happen. The sink is mutexed — emission is cheap and rare (session
   lifecycle, drift crossings, swaps), never per-block — and the no-op
   default is simply "no sink constructed": call sites hold a
   [t option] and skip everything on [None]. *)

type value = S of string | I of int | F of float

type t = {
  oc : out_channel;
  clock : unit -> float;
  mu : Mutex.t;
  mutable seq : int;
  owned : bool; (* close [oc] on [close]? *)
}

let make ~owned ?clock oc =
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  { oc; clock; mu = Mutex.create (); seq = 0; owned }

let create ?clock oc = make ~owned:false ?clock oc
let open_file ?clock path = make ~owned:true ?clock (open_out path)

let add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let emit t kind fields =
  Mutex.lock t.mu;
  let seq = t.seq in
  t.seq <- seq + 1;
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "{\"seq\":%d,\"ts\":%.6f,\"event\":" seq (t.clock ()));
  add_json_string b kind;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ',';
      add_json_string b k;
      Buffer.add_char b ':';
      match v with
      | S s -> add_json_string b s
      | I i -> Buffer.add_string b (string_of_int i)
      | F f -> Buffer.add_string b (Printf.sprintf "%.6f" f))
    fields;
  Buffer.add_string b "}\n";
  Buffer.output_buffer t.oc b;
  flush t.oc;
  Mutex.unlock t.mu

let close t =
  Mutex.lock t.mu;
  flush t.oc;
  if t.owned then close_out t.oc;
  Mutex.unlock t.mu
