type entry = {
  rep : Replayer.t;
  mutable invalidations : int;
  mutable interrupts : int;
}

type t = {
  mutable make : int -> Replayer.t; (* replaced in place by [rebind] *)
  table : (int, entry) Hashtbl.t;
  mutable cur_asid : int;
  mutable cur : entry option; (* cache: table binding of [cur_asid] *)
  mutable switches : int;
}

let create make =
  { make; table = Hashtbl.create 8; cur_asid = 0; cur = None; switches = 0 }

(* The per-block path: one equality test when the stream stays in the same
   address space, one hash probe on a context switch. Entries are created
   lazily on the first {e block} of an asid — switch/invalidate/interrupt
   records alone never materialize an automaton, so the asid set a stream
   produces is exactly the set of asids that executed code (and matches
   what isolated per-asid replay produces). *)
let entry_for t asid =
  match t.cur with
  | Some e when asid = t.cur_asid -> e
  | _ ->
      let e =
        match Hashtbl.find_opt t.table asid with
        | Some e -> e
        | None ->
            let e = { rep = t.make asid; invalidations = 0; interrupts = 0 } in
            Hashtbl.add t.table asid e;
            e
      in
      t.cur_asid <- asid;
      t.cur <- Some e;
      e

(* Hot image swap across the whole address-space table. Every live
   replayer is rebound in place — entries, the [cur] cache and any
   feeder holding an entry stay valid — and the factory is replaced so
   asids that first appear after the swap are built over the new image.
   The factory builds a whole replayer per asid only to donate its
   engine; the throwaway is cheap next to the rebuild that precedes a
   swap. *)
let rebind t make =
  t.make <- make;
  Hashtbl.iter
    (fun asid e -> Replayer.rebind e.rep (Replayer.engine (make asid)))
    t.table

(* A cut models losing the translated-code context: the automaton drops to
   NTE with {e no} accounting ([Replayer.set_state] bumps nothing), so a
   forced eviction is never confused with an organic trace exit and
   coverage totals stay exact. *)
let cut e = Replayer.set_state e.rep Automaton.nte

let feed t ~asid ev =
  match (ev : Pc_trace.event) with
  | Block { start; insns } -> Replayer.feed_addr (entry_for t asid).rep ~insns start
  | Switch { asid = a } ->
      if a <> t.cur_asid || t.cur = None then begin
        t.cur_asid <- a;
        t.cur <- Hashtbl.find_opt t.table a
      end;
      t.switches <- t.switches + 1
  | Invalidate { asid = target } -> (
      match Hashtbl.find_opt t.table target with
      | None -> () (* nothing translated for that asid yet *)
      | Some e ->
          cut e;
          e.invalidations <- e.invalidations + 1)
  | Interrupt -> (
      match Hashtbl.find_opt t.table asid with
      | None -> ()
      | Some e ->
          cut e;
          e.interrupts <- e.interrupts + 1)

let feed_run_buf = 4096

(* Incremental batching front-end: buffers consecutive same-asid block
   runs and flushes them through {!Replayer.feed_run}, so event-at-a-time
   producers (the serve daemon's drain cycles, file replay) all take the
   {e batched} engine loops — the same dispatch path, and therefore the
   same dispatch-tier attribution, as offline replay. Equivalence with
   event-at-a-time [feed] is the feed_run == feed_addr property. *)
type feeder = {
  f_t : t;
  f_starts : int array;
  f_insns : int array;
  mutable f_fill : int;
  mutable f_for : entry option;
}

let feeder ?(buf = feed_run_buf) t =
  if buf < 1 then invalid_arg "Multi_replayer.feeder: buf must be >= 1";
  {
    f_t = t;
    f_starts = Array.make buf 0;
    f_insns = Array.make buf 0;
    f_fill = 0;
    f_for = None;
  }

let feeder_flush f =
  (match f.f_for with
  | Some e when f.f_fill > 0 ->
      Replayer.feed_run e.rep ~insns:f.f_insns f.f_starts ~len:f.f_fill
  | _ -> ());
  f.f_fill <- 0

(* The allocation-free hot path: producers that already hold the block's
   fields as ints (the streaming decoder in [feeder_decode]) feed them
   straight into the run buffer without ever boxing a [Pc_trace.event]. *)
let feeder_block f ~asid ~start ~insns =
  let e = entry_for f.f_t asid in
  (match f.f_for with
  | Some e' when e' == e -> ()
  | _ ->
      feeder_flush f;
      f.f_for <- Some e);
  f.f_starts.(f.f_fill) <- start;
  f.f_insns.(f.f_fill) <- insns;
  f.f_fill <- f.f_fill + 1;
  if f.f_fill = Array.length f.f_starts then feeder_flush f

let feeder_feed f ~asid ev =
  match (ev : Pc_trace.event) with
  | Block { start; insns } -> feeder_block f ~asid ~start ~insns
  | ev ->
      feeder_flush f;
      f.f_for <- None;
      feed f.f_t ~asid ev

(* The one decode-into-replay path: the daemon's drain task runs it on
   every payload, file replay on every chunk. Blocks reach the run buffer
   as unboxed ints; only control records build an event. *)
let feeder_decode f dec ?off ?len s =
  let ctls = ref 0 and blocks = ref 0 in
  Pc_trace.decoder_feed_ints dec ?off ?len s
    ~block:(fun ~asid ~start ~insns ->
      incr blocks;
      feeder_block f ~asid ~start ~insns)
    ~ctl:(fun ~asid ~tag ~arg ->
      incr ctls;
      feeder_feed f ~asid (Pc_trace.event_of_ctl ~tag ~arg));
  (!ctls + !blocks, !blocks)

let replay_chunk = 65536

(* Fed in chunks so the decoder's buffer stays one chunk long instead of
   holding a second copy of the file. *)
let replay_file t path =
  let f = feeder t and dec = Pc_trace.decoder () in
  let s = Pc_trace.read_all path in
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    let len = min replay_chunk (n - !off) in
    ignore (feeder_decode f dec ~off:!off ~len s);
    off := !off + len
  done;
  Pc_trace.decoder_finish dec;
  feeder_flush f

let replay_events make path =
  let t = create make in
  replay_file t path;
  t

let asids t =
  Hashtbl.fold (fun a _ acc -> a :: acc) t.table [] |> List.sort compare

let replayer t asid =
  Option.map (fun e -> e.rep) (Hashtbl.find_opt t.table asid)

let cur_asid t = t.cur_asid

let switches t = t.switches

let invalidations t asid =
  match Hashtbl.find_opt t.table asid with Some e -> e.invalidations | None -> 0

let interrupts t asid =
  match Hashtbl.find_opt t.table asid with Some e -> e.interrupts | None -> 0

let snapshots t =
  asids t
  |> List.map (fun a ->
         let e = Hashtbl.find t.table a in
         (a, Replayer.snapshot e.rep))

let add_edge_counts t acc =
  Hashtbl.iter (fun _ e -> Replayer.add_edge_counts e.rep acc) t.table

(* Per-asid projection of an interleaved file: asid [a] keeps its blocks
   and interrupts in stream order plus every invalidation {e targeting}
   it (wherever in the interleaving it was issued). Switches vanish —
   they carry no per-asid observable. Replaying each projection in
   isolation is the reference the demuxed replay is gated against. *)
let project path =
  let buckets : (int, Pc_trace.event list ref) Hashtbl.t = Hashtbl.create 8 in
  let bucket a =
    match Hashtbl.find_opt buckets a with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add buckets a r;
        r
  in
  Pc_trace.fold_events path () (fun () ~asid ev ->
      match ev with
      | Pc_trace.Block _ | Pc_trace.Interrupt ->
          let r = bucket asid in
          r := ev :: !r
      | Pc_trace.Invalidate { asid = target } ->
          let r = bucket target in
          r := ev :: !r
      | Pc_trace.Switch _ -> ());
  Hashtbl.fold (fun a r acc -> (a, List.rev !r) :: acc) buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let replay_isolated make path =
  project path
  |> List.filter_map (fun (a, evs) ->
         let t = create make in
         List.iter (fun ev -> feed t ~asid:a ev) evs;
         match replayer t a with
         | None -> None (* no blocks: the asid never executed code *)
         | Some rep -> Some (a, Replayer.snapshot rep))
