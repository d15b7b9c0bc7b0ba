(* Reference-machine scaling of reported times.

   The reference box is a shared virtual machine. Its neighbours' load
   slows it down by 10-50% for seconds or minutes at a time, so the median
   of a run moves with whatever else the host was doing while it ran.
   Each run therefore also times a fixed calibration kernel next to its
   work and reports every time multiplied by [reference / kernel time]:
   in seconds of the reference box at its usual speed. The record keeps
   the factor as [clock.scale], so raw wall times stay recoverable.

   The kernel has to slow down when the work does, so it is made of the
   same kinds of work, written in the benchmark and calling nothing in the
   library (no change to the program under test moves it):
   - [memory]: the path that dominates the offline rounds. It decodes a
     varint stream of (delta, insns) pairs into two int arrays that grow
     by doubling, from an empty major heap, so it allocates, faults fresh
     pages in and writes memory as [Shard.load_pc_trace] does;
   - [ipc]: what dominates a short daemon session, one thread waking
     another through a socket. Two threads bounce a byte across a Unix
     socket pair.
   Offline runs use [memory] alone, one pass before every round; serve
   runs use the sum of both, between batches of sessions. A pure integer
   loop tracks neither: it leaves ten runs of offline-loopy 13% apart,
   where [memory] leaves them 2-3% apart. *)

let blocks = 530_000

(* [memory]'s input: [blocks] pairs from a fixed generator, the size of
   one of offline-loopy's captures. *)
let stream =
  lazy
    (let b = Buffer.create (3 * blocks) in
     let rec put v =
       if v < 0x80 then Buffer.add_char b (Char.chr v)
       else begin
         Buffer.add_char b (Char.chr (0x80 lor (v land 0x7f)));
         put (v lsr 7)
       end
     in
     let g = ref 12345 in
     for _ = 1 to blocks do
       g := ((!g * 1103515245) + 12345) land 0x3fffffff;
       put (!g land 0x3ff);
       put ((!g lsr 10) land 0x1f)
     done;
     Buffer.contents b)

(* One pass, in seconds. The full major collection before it is not timed. *)
let memory () =
  let s = Lazy.force stream in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let len = String.length s and pos = ref 0 in
  let varint () =
    let rec go shift acc =
      let b = Char.code (String.unsafe_get s !pos) in
      incr pos;
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0
  in
  let starts = ref (Array.make 4096 0) and insns = ref (Array.make 4096 0) in
  let n = ref 0 and prev = ref 0 in
  while !pos < len do
    (* the pair is boxed, as the decoder's is *)
    let delta, k = Sys.opaque_identity (let d = varint () in (d, varint ())) in
    let cap = Array.length !starts in
    if !n = cap then begin
      let s' = Array.make (2 * cap) 0 and i' = Array.make (2 * cap) 0 in
      Array.blit !starts 0 s' 0 !n;
      Array.blit !insns 0 i' 0 !n;
      starts := s';
      insns := i'
    end;
    prev := !prev + delta;
    !starts.(!n) <- !prev;
    !insns.(!n) <- k;
    incr n
  done;
  ignore (Sys.opaque_identity (!starts, !insns));
  Unix.gettimeofday () -. t0

let round_trips = 2000

(* One pass, in seconds: [round_trips] one-byte round trips between this
   thread and an echo thread. *)
let ipc () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
  let bounce fd buf = if Unix.read fd buf 0 1 <> 1 || Unix.write fd buf 0 1 <> 1 then failwith "Clock.ipc" in
  let echo = Thread.create (fun () -> let buf = Bytes.create 1 in for _ = 1 to round_trips do bounce b buf done) () in
  let buf = Bytes.create 1 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to round_trips do
    if Unix.write a buf 0 1 <> 1 || Unix.read a buf 0 1 <> 1 then failwith "Clock.ipc"
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Thread.join echo;
  dt

(* The passes' medians on the reference box, seconds. *)
let reference_memory_s = 0.029
let reference_ipc_s = 0.026

(* Every pass of a run, so that their median is the run's own speed. *)
type log = { ipc : bool; mutable passes : float list }

let log ~ipc = { ipc; passes = [] }

(* [n] passes, logged; their median. *)
let sample log n =
  let ks = List.init n (fun _ -> memory () +. if log.ipc then ipc () else 0.0) in
  log.passes <- ks @ log.passes;
  Stats.median ks

let run_median log = Stats.median log.passes

(* [dt], measured next to passes whose median was [k], restated at the
   run's median speed; {!scale} then turns every time of the run into
   reference-box time alike. *)
let at_run_median log ~k dt = dt *. run_median log /. k

let scale log =
  (reference_memory_s +. if log.ipc then reference_ipc_s else 0.0) /. run_median log

let time_units = [ "s"; "ms"; "us"; "ns/block" ]

let scale_metric factor (m : Report.metric) =
  if List.mem m.Report.unit_ time_units then { m with Report.value = m.Report.value *. factor }
  else m
