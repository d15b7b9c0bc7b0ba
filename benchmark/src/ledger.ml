(* The traced run's span ledger. Spans are recorded from the benchmark's own
   code around each public call into a layer, kept in memory, and written
   as Chrome trace JSON at the end: one tree per round, session or replica
   pass. A layer's self time is its span's duration minus the part its
   child spans cover. *)

module Span = Tea_telemetry.Span

type t = Span.sink

let create () = Span.create ()

let root (t : t) ?(args = []) name f = Span.with_span t ~args name f

(* A leaf: one call into a layer, tagged with the blocks it covered. *)
let leaf (t : t) ?(blocks = 0) name f =
  Span.with_span t ~args:[ ("blocks", string_of_int blocks) ] name f

type node = {
  ev : Span.event;
  mutable children : float;  (** seconds covered by direct children *)
}

let dur n = n.ev.Span.e_dur
let self n = dur n -. n.children

let blocks n =
  match List.assoc_opt "blocks" n.ev.Span.e_args with
  | Some b -> int_of_string b
  | None -> 0

let arg n k = List.assoc_opt k n.ev.Span.e_args

(* Every span with its children's covered time. Events come sorted by
   (domain, start, entry order), so the parent of a span at depth d is the
   latest span seen at depth d - 1 on the same domain. *)
let nodes (t : t) =
  let last = Hashtbl.create 64 in
  List.map
    (fun ev ->
      let n = { ev; children = 0.0 } in
      let tid = ev.Span.e_tid and d = ev.Span.e_depth in
      (if d > 0 then
         match Hashtbl.find_opt last (tid, d - 1) with
         | Some p -> p.children <- p.children +. ev.Span.e_dur
         | None -> ());
      Hashtbl.replace last (tid, d) n;
      n)
    (Span.events t)

let named name ns = List.filter (fun n -> n.ev.Span.e_name = name) ns

(* Total self time, span count and blocks of every span with this name. *)
let total ns name =
  List.fold_left
    (fun (s, c, b) n -> (s +. self n, c + 1, b + blocks n))
    (0.0, 0, 0) (named name ns)

let ns_per_block ns name =
  let s, _, b = total ns name in
  if b = 0 then 0.0 else 1e9 *. s /. float_of_int b

let mean_us ns name =
  let s, c, _ = total ns name in
  if c = 0 then 0.0 else 1e6 *. s /. float_of_int c

let write (t : t) path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Span.to_chrome_json t))

let validate (t : t) = Span.validate t
