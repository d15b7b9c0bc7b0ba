(* A per-asid entry also holds that asid's feeder run buffer, its lane:
   blocks fed through a {!feeder} but not yet replayed. Entries whose
   lane took a block since the last [flush_all] sit on an intrusive stack
   threaded through [next]; an entry off the stack links to itself. *)
type entry = {
  asid : int;
  rep : Replayer.t;
  mutable invalidations : int;
  mutable interrupts : int;
  lane : Pc_trace.lane;
  mutable next : entry;
}

type t = {
  make : int -> Replayer.t;
  table : (int, entry) Hashtbl.t;
  mutable cur : entry; (* cache: the entry of the last block's asid *)
  mutable dirty : entry; (* top of the stack of buffered entries *)
  mutable route : Pc_trace.lane array;
      (* the kernel's route: the dirty entries' lanes, by asid *)
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
    lane = Pc_trace.no_lane;
    next = no_entry;
  }

(* zero counts and an empty lane of its own; off the stack *)
let new_entry asid rep =
  let e =
    { no_entry with asid; rep; lane = { starts = [||]; insns = [||]; fill = 0 } }
  in
  e.next <- e;
  e

let create make =
  { make; table = Hashtbl.create 8; cur = no_entry; dirty = no_entry; route = [||] }

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
  let l = e.lane in
  if l.fill > 0 then begin
    Replayer.feed_run e.rep ~insns:l.insns l.starts ~len:l.fill;
    l.fill <- 0
  end

(* The route equals the dirty stack: an entry's lane is routed exactly
   while the entry is on the stack, so a flush reaches every lane the
   kernel wrote. Asids from [route_cap] on are never routed (the kernel
   stops at a switch to them, as to any unrouted asid), and a lone entry
   on the stack leaves the table empty: a one-asid stream never switches
   into another lane, so it allocates no table. The table grows on
   demand, routing every entry on the stack as it does. *)
let route_cap = 4096

let push t e =
  e.next <- t.dirty;
  t.dirty <- e;
  let a = e.asid in
  if a < Array.length t.route then t.route.(a) <- e.lane
  else if a < route_cap && (e.next != no_entry || Array.length t.route > 0)
  then begin
    let rec widest x m =
      if x == no_entry then m
      else widest x.next (if x.asid < route_cap then max m x.asid else m)
    in
    let r = Array.make (min route_cap (2 * (widest e 0 + 1))) Pc_trace.no_lane in
    let rec fill x =
      if x != no_entry then begin
        if x.asid < Array.length r then r.(x.asid) <- x.lane;
        fill x.next
      end
    in
    fill e;
    t.route <- r
  end

(* Touches only the entries that took a block since the last call. *)
let flush_all t =
  while t.dirty != no_entry do
    let e = t.dirty in
    t.dirty <- e.next;
    e.next <- e;
    if e.asid < Array.length t.route then t.route.(e.asid) <- Pc_trace.no_lane;
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
  let l = e.lane in
  let n = Array.length l.starts in
  if n < f.f_cap then begin
    let n = min f.f_cap (max first_buf (2 * n)) in
    l.starts <- Array.make n 0;
    l.insns <- Array.make n 0
  end

(* The entry a block of [asid] goes to, on the dirty stack and with room
   for the block. *)
let room_for f asid =
  let t = f.f_t in
  let e = entry_for t asid in
  if e.next == e then push t e;
  if e.lane.fill = Array.length e.lane.starts then make_room f e;
  e

(* One block from a producer that holds its fields as ints, without
   boxing a [Pc_trace.event]. *)
let feeder_block f ~asid ~start ~insns =
  let l = (room_for f asid).lane in
  let i = l.fill in
  l.starts.(i) <- start;
  l.insns.(i) <- insns;
  l.fill <- i + 1

let feeder_feed f ~asid ev =
  match (ev : Pc_trace.event) with
  | Block { start; insns } -> feeder_block f ~asid ~start ~insns
  | ev -> feed f.f_t ~asid ev

(* The current asid's lane if it is routed, else the empty lane: the
   kernel then stops at the asid's first block, and the entry is looked
   up, or made, only for an asid that runs code. *)
let lane_of t dec =
  let a = Pc_trace.decoder_asid dec in
  if a < Array.length t.route then t.route.(a) else Pc_trace.no_lane

(* The one decode-into-replay path, for every session a daemon event
   loop serves and every file replay: the kernel decodes each asid's
   blocks straight into its lane and takes the switches to routed asids
   itself; the step between its calls makes room or applies a control
   record. *)
let rec drain f dec lane blocks =
  let t = f.f_t in
  let blocks = blocks + Pc_trace.decode_blocks dec t.route lane in
  let step = Pc_trace.decode_step dec in
  if step = Pc_trace.step_full then
    drain f dec (room_for f (Pc_trace.decoder_asid dec)).lane blocks
  else if step = Pc_trace.step_end then blocks
  else begin
    ctl t ~asid:(Pc_trace.decoder_asid dec) ~tag:step ~arg:(Pc_trace.decoder_arg dec);
    drain f dec (lane_of t dec) blocks
  end

let feeder_decode f dec ?off ?len s =
  Pc_trace.decoder_input dec ?off ?len s;
  drain f dec (lane_of f.f_t dec) 0

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
