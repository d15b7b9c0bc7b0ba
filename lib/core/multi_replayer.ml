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

(* The relay: a bounded ring that hands filled lanes from the feeder
   (the producer, which decodes) to a second domain that replays them
   (the consumer). A slot holds one replayer's run and a cut flag; the
   producer swaps a lane's arrays with a free slot's, so a hand-over
   copies and allocates nothing. [head] counts the slots ever filled and
   [tail] the slots ever replayed; each has one writer at a time, so the
   ring needs no lock. The slots replay in stream order, so an asid's
   runs and cuts keep their order. *)
type slot = {
  mutable s_rep : Replayer.t;
  mutable s_starts : int array;
  mutable s_insns : int array;
  mutable s_fill : int;
  mutable s_cut : bool; (* drop to NTE after the run, as [ctl]'s cut *)
}

(* Who replays the ring: the consumer once it has claimed it; before
   that, the producer one slot at a time ([helping]) whenever it must
   wait; nobody once the consumer raised. *)
let unclaimed = 0
let by_consumer = 1
let helping = 2
let dropped = 3

(* How the producer's stream ended. *)
let open_ = 0
let ended = 1
let aborted = 2

type relay = {
  ring : slot array; (* a power of two *)
  head : int Atomic.t;
  tail : int Atomic.t;
  owner : int Atomic.t;
  fin : int Atomic.t;
  credit : int -> unit; (* blocks replayed, on the domain that replayed them *)
  m : Mutex.t;
  cv : Condition.t;
  p_asleep : bool Atomic.t;
  c_asleep : bool Atomic.t;
}

type t = {
  make : int -> Replayer.t;
  relay : relay option; (* where [flush] hands runs; [None]: replay here *)
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

let feed_run_buf = 4096

let slots = 8

let relay_blocks = slots * feed_run_buf

(* The ring of the last relay drained, for the next one: the slots'
   arrays are allocated once, not paged in afresh for every file. *)
let spare_ring = Atomic.make None

(* A fresh ring is allocated here, on the domain that creates the relay,
   not on the producer: a large array a worker frees stays in that
   worker's malloc arena. *)
let relay credit =
  let slot _ =
    {
      s_rep = no_entry.rep;
      s_starts = Array.make feed_run_buf 0;
      s_insns = Array.make feed_run_buf 0;
      s_fill = 0;
      s_cut = false;
    }
  in
  {
    ring =
      (match Atomic.exchange spare_ring None with
      | Some ring -> ring
      | None -> Array.init slots slot);
    head = Atomic.make 0;
    tail = Atomic.make 0;
    owner = Atomic.make unclaimed;
    fin = Atomic.make open_;
    credit;
    m = Mutex.create ();
    cv = Condition.create ();
    p_asleep = Atomic.make false;
    c_asleep = Atomic.make false;
  }

(* A waiting side spins about one slot's work (some 30 us at a few ns
   a block), long enough for a partner running on another core to
   publish; past that the partner has lost its core, and spinning on
   would burn the time slices it needs, so the side sleeps. A sleeper
   is woken once half the ring is ready for it, so two sides sharing a
   core switch once per half ring, not once per slot. *)
let spins = 1 lsl 10

let half = slots / 2

(* Wait until [ready ()]; a sleeper waits until [enough ()]. A sleeper
   raises its flag before its last check and the other side reads the
   flag after publishing, and both are sequentially consistent atomics,
   so a wake-up is never lost. *)
let await r asleep ~ready ~enough =
  let rec spin n =
    ready ()
    || n > 0
       && begin
            Domain.cpu_relax ();
            spin (n - 1)
          end
  in
  if not (spin spins) then begin
    Mutex.lock r.m;
    Atomic.set asleep true;
    while not (enough ()) do
      Condition.wait r.cv r.m
    done;
    Atomic.set asleep false;
    Mutex.unlock r.m
  end

let wake r =
  Mutex.lock r.m;
  Condition.broadcast r.cv;
  Mutex.unlock r.m

let replay_slot r i =
  let s = r.ring.(i land (slots - 1)) in
  if s.s_fill > 0 then begin
    Replayer.feed_run s.s_rep ~insns:s.s_insns s.s_starts ~len:s.s_fill;
    r.credit s.s_fill
  end;
  if s.s_cut then Replayer.set_state s.s_rep Automaton.nte

(* The producer replays the oldest slot itself if the consumer has not
   claimed the ring; true if it did. *)
let help r =
  Atomic.get r.owner = unclaimed
  && Atomic.compare_and_set r.owner unclaimed helping
  && begin
       let i = Atomic.get r.tail in
       replay_slot r i;
       Atomic.set r.tail (i + 1);
       Atomic.set r.owner unclaimed;
       if Atomic.get r.c_asleep then wake r;
       true
     end

(* The producer, to publish slot [h]: true once the slot is free, false
   if the consumer raised. It waits only for a consumer that has claimed
   the ring, so it never waits for one that has not started. *)
let rec room r h =
  h - Atomic.get r.tail < slots
  ||
  let o = Atomic.get r.owner in
  if o = by_consumer then begin
    let free n () = h - Atomic.get r.tail <= slots - n || Atomic.get r.owner <> by_consumer in
    await r r.p_asleep ~ready:(free 1) ~enough:(free half);
    room r h
  end
  else o <> dropped && (ignore (help r); room r h)

(* The feeder's flush point with a relay: hand lane [l]'s run (and the
   cut after it) to the ring, taking the free slot's arrays in
   exchange. *)
let hand r rep (l : Pc_trace.lane) ~cut =
  let h = Atomic.get r.head in
  if room r h then begin
    let s = r.ring.(h land (slots - 1)) in
    s.s_rep <- rep;
    s.s_fill <- l.fill;
    s.s_cut <- cut;
    if l.fill > 0 then begin
      let starts = s.s_starts and insns = s.s_insns in
      s.s_starts <- l.starts;
      s.s_insns <- l.insns;
      l.starts <- starts;
      l.insns <- insns
    end;
    Atomic.set r.head (h + 1);
    if Atomic.get r.c_asleep && h + 1 - Atomic.get r.tail >= half then wake r
  end;
  l.fill <- 0

(* Past the stream's last hand-over, a producer whose consumer has not
   claimed the ring replays what is left, so its task alone finishes the
   replay. *)
let rec help_out r = if Atomic.get r.tail < Atomic.get r.head && help r then help_out r

(* The producer's end of stream: [ended] after its last hand-over,
   [aborted] on an exception, which releases the consumer at once. *)
let finish r how =
  Atomic.set r.fin how;
  if Atomic.get r.c_asleep then wake r

let rec consume r i =
  if i < Atomic.get r.head then begin
    replay_slot r i;
    Atomic.set r.tail (i + 1);
    if Atomic.get r.p_asleep && Atomic.get r.head - (i + 1) <= slots - half then
      wake r;
    consume r (i + 1)
  end
  else begin
    (* [fin] before [head]: a producer that has ended published its last
       slot before [fin] *)
    let fin = Atomic.get r.fin in
    if fin = aborted then ()
    else if i < Atomic.get r.head then consume r i
    else if fin = open_ then begin
      let filled n () = Atomic.get r.head - i >= n || Atomic.get r.fin <> open_ in
      await r r.c_asleep ~ready:(filled 1) ~enough:(filled half);
      consume r i
    end
  end

let relay_drain r =
  (* one CAS claims the ring, once a slot the producer is replaying is
     done; a producer that raised releases the consumer unclaimed *)
  let rec claim () =
    let o = Atomic.get r.owner in
    if o = unclaimed then Atomic.compare_and_set r.owner unclaimed by_consumer || claim ()
    else begin
      let released () = Atomic.get r.owner <> helping || Atomic.get r.fin = aborted in
      await r r.c_asleep ~ready:released ~enough:released;
      Atomic.get r.fin <> aborted && claim ()
    end
  in
  (if claim () then
     try consume r (Atomic.get r.tail)
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       (* the producer stops handing over and drops the rest *)
       Atomic.set r.owner dropped;
       if Atomic.get r.p_asleep then wake r;
       Printexc.raise_with_backtrace e bt);
  (* the stream has ended or aborted, so the producer is done with the
     slots *)
  Array.iter (fun s -> s.s_rep <- no_entry.rep) r.ring;
  Atomic.set spare_ring (Some r.ring)

let create ?relay make =
  {
    make;
    relay;
    table = Hashtbl.create 8;
    cur = no_entry;
    dirty = no_entry;
    route = [||];
  }

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

let flush t e =
  let l = e.lane in
  if l.fill > 0 then
    match t.relay with
    | None ->
        Replayer.feed_run e.rep ~insns:l.insns l.starts ~len:l.fill;
        l.fill <- 0
    | Some r -> hand r e.rep l ~cut:false

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
    flush t e
  done

(* Hot image swap across the whole address-space table: buffered runs
   replay on the image they were fed under, then every live replayer is
   rebound in place onto the one shared engine, so entries, the cache
   and any feeder stay valid. *)
let rebind t engine =
  if t.relay <> None then invalid_arg "Multi_replayer.rebind: t has a relay";
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
        (match t.relay with
        | None ->
            flush t e;
            Replayer.set_state e.rep Automaton.nte
        | Some r -> hand r e.rep e.lane ~cut:true);
        if invalidate then e.invalidations <- e.invalidations + 1
        else e.interrupts <- e.interrupts + 1

let feed t ~asid ev =
  match (ev : Pc_trace.event) with
  | Block { start; insns } -> Replayer.feed_addr (entry_for t asid).rep ~insns start
  | Switch { asid = a } -> ctl t ~asid ~tag:Pc_trace.tag_switch ~arg:a
  | Invalidate { asid = a } -> ctl t ~asid ~tag:Pc_trace.tag_invalidate ~arg:a
  | Interrupt -> ctl t ~asid ~tag:Pc_trace.tag_interrupt ~arg:0

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
  flush f.f_t e;
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
let stream t dec s =
  let f = feeder t in
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

(* With a relay, the stream's end (or its exception) releases the
   consumer. *)
let relayed t replay =
  match t.relay with
  | None -> replay ()
  | Some r -> (
      match
        let blocks = replay () in
        help_out r;
        blocks
      with
      | blocks ->
          finish r ended;
          blocks
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          finish r aborted;
          Printexc.raise_with_backtrace e bt)

let replay_string t dec s = relayed t (fun () -> stream t dec s)

let replay_file t dec path =
  relayed t (fun () -> stream t dec (Pc_trace.read_all path))

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
