(* A per-asid entry also holds that asid's feeder run buffer: blocks fed
   through a {!feeder} but not yet replayed, [starts.(0..fill-1)]. Entries
   whose buffer took a block since the last [flush_all] sit on an
   intrusive stack threaded through [next]; an entry off the stack links
   to itself. *)
type entry = {
  asid : int;
  rep : Replayer.t;
  mutable invalidations : int;
  mutable interrupts : int;
  mutable starts : int array;
  mutable insns : int array;
  mutable fill : int;
  mutable next : entry;
}

type t = {
  make : int -> Replayer.t;
  table : (int, entry) Hashtbl.t;
  mutable cur : entry; (* cache: the entry of the last block's asid *)
  mutable dirty : entry; (* top of the stack of buffered entries *)
}

(* What [cur] holds before the first block, and the bottom of the dirty
   stack: never fed, never returned. *)
let rec no_entry =
  {
    asid = 0;
    rep =
      Replayer.create
        (Transition.create Transition.config_no_global_local (Automaton.create ()));
    invalidations = 0;
    interrupts = 0;
    starts = [||];
    insns = [||];
    fill = 0;
    next = no_entry;
  }

(* zero counts and empty buffers, as [no_entry]'s; off the stack *)
let new_entry asid rep =
  let e = { no_entry with asid; rep } in
  e.next <- e;
  e

let create make =
  { make; table = Hashtbl.create 8; cur = no_entry; dirty = no_entry }

(* The per-block path: one equality test when the stream stays in the same
   address space, one hash probe on a context switch, and no allocation
   either way. Entries are created lazily on the first {e block} of an
   asid — switch/invalidate/interrupt records alone never materialize an
   automaton, so the asid set a stream produces is exactly the set of
   asids that executed code (and matches what isolated per-asid replay
   produces). *)
let entry_for t asid =
  let e = t.cur in
  if e.asid = asid && e != no_entry then e
  else begin
    let e =
      match Hashtbl.find t.table asid with
      | e -> e
      | exception Not_found ->
          let e = new_entry asid (t.make asid) in
          Hashtbl.add t.table asid e;
          e
    in
    t.cur <- e;
    e
  end

let flush e =
  if e.fill > 0 then begin
    Replayer.feed_run e.rep ~insns:e.insns e.starts ~len:e.fill;
    e.fill <- 0
  end

(* Touches only the entries that took a block since the last call. *)
let flush_all t =
  while t.dirty != no_entry do
    let e = t.dirty in
    t.dirty <- e.next;
    e.next <- e;
    flush e
  done

(* Hot image swap across the whole address-space table: buffered runs
   replay on the image they were fed under, then every live replayer is
   rebound in place onto the one shared engine, so entries, the cache
   and any feeder stay valid. *)
let rebind t engine =
  flush_all t;
  Hashtbl.iter (fun _ e -> Replayer.rebind e.rep engine) t.table

(* A control record, as the decoder hands it over. A cut models losing
   the translated-code context: the target's buffered run replays first,
   then the automaton drops to NTE with {e no} step accounted
   ([Replayer.set_state] counts no step), so a forced eviction is never
   confused with an organic trace exit and coverage totals stay exact. A
   switch does nothing here: the next block's asid does the routing. *)
let ctl t ~asid ~tag ~arg =
  if tag <> Pc_trace.tag_switch then
    let invalidate = tag = Pc_trace.tag_invalidate in
    match Hashtbl.find t.table (if invalidate then arg else asid) with
    | exception Not_found -> () (* nothing translated for that asid yet *)
    | e ->
        flush e;
        Replayer.set_state e.rep Automaton.nte;
        if invalidate then e.invalidations <- e.invalidations + 1
        else e.interrupts <- e.interrupts + 1

let feed t ~asid ev =
  match (ev : Pc_trace.event) with
  | Block { start; insns } -> Replayer.feed_addr (entry_for t asid).rep ~insns start
  | Switch { asid = a } -> ctl t ~asid ~tag:Pc_trace.tag_switch ~arg:a
  | Invalidate { asid = a } -> ctl t ~asid ~tag:Pc_trace.tag_invalidate ~arg:a
  | Interrupt -> ctl t ~asid ~tag:Pc_trace.tag_interrupt ~arg:0

let feed_run_buf = 4096

(* A run buffer's first size. 256-word arrays are the largest the minor
   heap takes, so an asid that runs few blocks costs two arrays that die
   young, not the feeder's capacity. *)
let first_buf = 256

(* Incremental batching front-end: each asid's blocks collect in its own
   run buffer and replay through {!Replayer.feed_run}, so an interleaved
   stream (a daemon session, a file replay) takes the
   {e batched} engine loops however finely the stream interleaves — the
   same dispatch path, and therefore the same dispatch-tier attribution,
   as one asid replayed alone. Equivalence with event-at-a-time [feed] is
   the feed_run == feed_addr property plus the invisibility of batch
   seams. *)
type feeder = { f_t : t; f_cap : int }

let feeder ?(buf = feed_run_buf) t =
  if buf < 1 then invalid_arg "Multi_replayer.feeder: buf must be >= 1";
  { f_t = t; f_cap = buf }

let feeder_flush f = flush_all f.f_t

(* A full buffer replays; one below the capacity is then replaced by one
   twice its size. *)
let make_room f e =
  flush e;
  let n = Array.length e.starts in
  if n < f.f_cap then begin
    let n = min f.f_cap (max first_buf (2 * n)) in
    e.starts <- Array.make n 0;
    e.insns <- Array.make n 0
  end

(* The entry a block of [asid] goes to, on the dirty stack and with room
   for the block. *)
let room_for f asid =
  let t = f.f_t in
  let e = entry_for t asid in
  if e.next == e then begin
    e.next <- t.dirty;
    t.dirty <- e
  end;
  if e.fill = Array.length e.starts then make_room f e;
  e

(* One block from a producer that holds its fields as ints, without
   boxing a [Pc_trace.event]. *)
let feeder_block f ~asid ~start ~insns =
  let e = room_for f asid in
  let i = e.fill in
  e.starts.(i) <- start;
  e.insns.(i) <- insns;
  e.fill <- i + 1

let feeder_feed f ~asid ev =
  match (ev : Pc_trace.event) with
  | Block { start; insns } -> feeder_block f ~asid ~start ~insns
  | ev -> feed f.f_t ~asid ev

(* The one decode-into-replay path, for every session a daemon event
   loop serves and every file replay: the kernel decodes each run of
   blocks straight into its asid's run buffer, and the step between runs
   makes room or applies a control record. A run starts on [no_entry]'s
   empty buffer, so the kernel stops at its first block and the entry is
   looked up, or made, only for an asid that runs code. *)
let feeder_decode f dec ?off ?len s =
  Pc_trace.decoder_input dec ?off ?len s;
  let rec go e blocks =
    let fill = Pc_trace.decode_blocks dec e.starts e.insns e.fill in
    let blocks = blocks + (fill - e.fill) in
    if fill > e.fill then e.fill <- fill;
    let step = Pc_trace.decode_step dec in
    let asid = Pc_trace.decoder_asid dec in
    if step = Pc_trace.step_full then go (room_for f asid) blocks
    else if step = Pc_trace.step_end then blocks
    else begin
      ctl f.f_t ~asid ~tag:step ~arg:(Pc_trace.decoder_arg dec);
      go no_entry blocks
    end
  in
  go no_entry 0

let replay_chunk = 65536

(* Fed in chunks so the decoder's buffer stays one chunk long instead of
   holding a second copy of the file. *)
let replay_file t dec path =
  let f = feeder t in
  let s = Pc_trace.read_all path in
  let n = String.length s in
  let off = ref 0 and blocks = ref 0 in
  while !off < n do
    let len = min replay_chunk (n - !off) in
    blocks := !blocks + feeder_decode f dec ~off:!off ~len s;
    off := !off + len
  done;
  Pc_trace.decoder_finish dec;
  feeder_flush f;
  !blocks

let replay_events make path =
  let t = create make in
  ignore (replay_file t (Pc_trace.decoder ()) path);
  t

let asids t =
  Hashtbl.fold (fun a _ acc -> a :: acc) t.table [] |> List.sort compare

let replayer t asid =
  Option.map (fun e -> e.rep) (Hashtbl.find_opt t.table asid)

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
