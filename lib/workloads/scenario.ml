module Pc_trace = Tea_core.Pc_trace
module Splitmix = Tea_util.Splitmix

type stream = {
  asid : int;
  name : string;
  starts : int array;
  insns : int array;
  len : int;
}

type schedule = Round_robin | Random_sched of int

let stream ~asid ~name ~starts ~insns ~len =
  if asid < 0 then invalid_arg "Scenario.stream: negative asid";
  if len < 0 || len > Array.length starts || len > Array.length insns then
    invalid_arg "Scenario.stream: len out of range";
  { asid; name; starts; insns; len }

let load_stream ~asid ~name path =
  let { Pc_trace.starts; insns; len } = Pc_trace.load path in
  stream ~asid ~name ~starts ~insns ~len

(* Emitters track the stream's current asid themselves (a v3 stream opens
   in asid 0), so a scenario only pays a Switch record when the scheduled
   asid actually changes. *)
type emitter = { emit : Pc_trace.event -> unit; mutable cur : int }

let switch_to em asid =
  if asid <> em.cur then begin
    em.emit (Pc_trace.Switch { asid });
    em.cur <- asid
  end

let block_of em s i =
  switch_to em s.asid;
  em.emit (Pc_trace.Block { start = s.starts.(i); insns = s.insns.(i) })

let check_streams fn streams =
  if streams = [] then invalid_arg (fn ^ ": no streams");
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s.asid then
        invalid_arg (fn ^ ": duplicate asid " ^ string_of_int s.asid);
      Hashtbl.add seen s.asid ())
    streams

let interleave ?(quantum = 8) ?(schedule = Round_robin) streams emit =
  if quantum < 1 then invalid_arg "Scenario.interleave: quantum < 1";
  check_streams "Scenario.interleave" streams;
  let em = { emit; cur = 0 } in
  let streams = Array.of_list streams in
  let pos = Array.map (fun _ -> 0) streams in
  let live () =
    let l = ref [] in
    Array.iteri
      (fun i s -> if pos.(i) < s.len then l := i :: !l)
      streams;
    List.rev !l
  in
  let turn i =
    let s = streams.(i) in
    let n = min quantum (s.len - pos.(i)) in
    for k = pos.(i) to pos.(i) + n - 1 do
      block_of em s k
    done;
    pos.(i) <- pos.(i) + n
  in
  match schedule with
  | Round_robin ->
      let n = Array.length streams in
      let total = Array.fold_left (fun acc s -> acc + s.len) 0 streams in
      let emitted = ref 0 in
      let i = ref 0 in
      while !emitted < total do
        let j = !i mod n in
        if pos.(j) < streams.(j).len then begin
          let before = pos.(j) in
          turn j;
          emitted := !emitted + (pos.(j) - before)
        end;
        incr i
      done
  | Random_sched seed ->
      let g = Splitmix.create seed in
      let rec go () =
        match live () with
        | [] -> ()
        | l ->
            turn (List.nth l (Splitmix.int g (List.length l)));
            go ()
      in
      go ()

let smc ?(period = 64) s emit =
  if period < 1 then invalid_arg "Scenario.smc: period < 1";
  let em = { emit; cur = 0 } in
  for i = 0 to s.len - 1 do
    block_of em s i;
    if (i + 1) mod period = 0 && i + 1 < s.len then
      em.emit (Pc_trace.Invalidate { asid = s.asid })
  done

let interrupt ?at ?every s emit =
  let em = { emit; cur = 0 } in
  let hit =
    match every with
    | Some n ->
        if n < 1 then invalid_arg "Scenario.interrupt: every < 1";
        fun i -> (i + 1) mod n = 0
    | None ->
        let at = match at with Some a -> a | None -> s.len / 2 in
        if at < 0 then invalid_arg "Scenario.interrupt: negative offset";
        fun i -> i + 1 = at
  in
  for i = 0 to s.len - 1 do
    block_of em s i;
    if hit i && i + 1 < s.len then em.emit Pc_trace.Interrupt
  done

let write_file path f =
  let w = Pc_trace.open_writer ~format:Pc_trace.V3 path in
  let n = ref 0 in
  Fun.protect
    ~finally:(fun () -> Pc_trace.close_writer w)
    (fun () ->
      f (fun ev ->
          Pc_trace.write_event w ev;
          incr n));
  !n

let events f =
  let acc = ref [] in
  f (fun ev -> acc := ev :: !acc);
  List.rev !acc
