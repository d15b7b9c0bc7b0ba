(* Seeded workload inputs. The benchmark's seed only ever reaches the
   program under test as the bytes built here: which point of a capture a
   stream starts at, how streams interleave, which slices a churn session
   sends, in which order, and which sessions abort. *)

module Pc_trace = Tea_core.Pc_trace
module Splitmix = Tea_util.Splitmix

type stream = { starts : int array; insns : int array; len : int }

(* one independent generator per purpose, so adding a draw for one input
   never shifts another's *)
let gen ~seed ~salt = Splitmix.create ((seed * 1_000_003) + salt)

let program name =
  match Tea_workloads.Spec2000.by_name name with
  | Some p -> Tea_workloads.Spec2000.image p
  | None -> invalid_arg ("Inputs.program: unknown program " ^ name)

(* Run the program under the capture frontend (Pin policy with edge
   filtering) and decode the block stream it wrote. *)
let capture ~path image =
  ignore (Tea_pinsim.Trace_capture.record image path);
  let starts, insns, len = Tea_parallel.Shard.load_pc_trace path in
  { starts; insns; len }

let sub s ~off ~len =
  if off < 0 || len < 0 || off + len > s.len then
    invalid_arg "Inputs.sub: range out of stream";
  { starts = Array.sub s.starts off len; insns = Array.sub s.insns off len; len }

(* The whole stream, started [by] blocks in and wrapped around: every block
   is kept, so the work per round does not depend on the seed. *)
let rotate s ~by =
  if s.len = 0 then s
  else
    let by = ((by mod s.len) + s.len) mod s.len in
    let pick a = Array.init s.len (fun i -> a.((i + by) mod s.len)) in
    { starts = pick s.starts; insns = pick s.insns; len = s.len }

let rotation ~seed ~salt s = if s.len = 0 then 0 else Splitmix.int (gen ~seed ~salt) s.len

let write_v2 path s =
  let w = Pc_trace.open_writer ~format:Pc_trace.V2 path in
  for i = 0 to s.len - 1 do
    Pc_trace.write w ~start:s.starts.(i) ~insns:s.insns.(i)
  done;
  Pc_trace.close_writer w

(* The same block stream cut into 64-block runs alternating between asids
   0 and 1: one program seen as two address spaces, as a PCTR3 stream the
   daemon demultiplexes per session. *)
let write_two_asid path s =
  let w = Pc_trace.open_writer ~format:Pc_trace.V3 path in
  for i = 0 to s.len - 1 do
    if i mod 64 = 0 then Pc_trace.switch_asid w (i / 64 mod 2);
    Pc_trace.write w ~start:s.starts.(i) ~insns:s.insns.(i)
  done;
  Pc_trace.close_writer w

(* Interleave streams (asid = position in the list) with a seeded random
   scheduler, 8 blocks per turn, into one PCTR3 file. *)
let write_interleaved ~seed path streams =
  let streams =
    List.mapi
      (fun asid (name, s) ->
        Tea_workloads.Scenario.stream ~asid ~name ~starts:s.starts ~insns:s.insns
          ~len:s.len)
      streams
  in
  ignore
    (Tea_workloads.Scenario.write_file path
       (Tea_workloads.Scenario.interleave ~quantum:8
          ~schedule:(Tea_workloads.Scenario.Random_sched seed) streams))

(* [count] slices of the last [tail] share of a stream. Lengths are
   log-uniform in [lo, hi], stratified (one draw per 1/count quantile band)
   so the pool's total length barely moves with the seed; offsets are
   uniform over the positions where the slice fits in the tail. *)
let slice_plan ~seed ~count ~lo ~hi ~tail ~total =
  if lo < 1 || hi < lo || count < 1 then invalid_arg "Inputs.slice_plan";
  let tail_start = total - int_of_float (tail *. float_of_int total) in
  if total - tail_start < hi then
    invalid_arg "Inputs.slice_plan: tail shorter than the longest slice";
  let g = gen ~seed ~salt:17 in
  let ratio = float_of_int hi /. float_of_int lo in
  Array.init count (fun i ->
      let u = (float_of_int i +. Splitmix.float g) /. float_of_int count in
      let len = max lo (min hi (int_of_float (Float.round (float_of_int lo *. (ratio ** u))))) in
      let off = tail_start + Splitmix.int g (total - tail_start - len + 1) in
      (off, len))

(* Session [i] sends slice [order.(i mod pool)]: a seeded permutation of the
   pool, cycled. *)
let session_order ~seed ~pool =
  let order = Array.init pool Fun.id in
  Splitmix.shuffle (gen ~seed ~salt:29) order;
  order

(* One rude abort in every block of [every] session slots, at a seeded
   position within the block, with the seeded share of its stream it sends
   before closing. *)
let abort_plan ~seed ~every ~sessions =
  let g = gen ~seed ~salt:31 in
  let plan = Array.make sessions None in
  for b = 0 to (sessions / every) - 1 do
    plan.((b * every) + Splitmix.int g every) <- Some (Splitmix.float g)
  done;
  plan

(* The bytes an abort with share [u] sends of a [size]-byte stream: never
   none, never all. *)
let abort_bytes u ~size = 1 + int_of_float (u *. float_of_int (max 0 (size - 2)))
