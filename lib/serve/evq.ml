(* Unboxed event queue.

   A [(int * Pc_trace.event) Queue.t] costs a queue cell, a tuple and a
   constructor block per event, chased as scattered heap pointers by the
   consumer. Instead, events are flattened at enqueue time into stride-4
   int records [tag; asid; a; b] in one growable power-of-two ring: the
   producer writes fields, the consumer streams them back out of a dense
   array — no allocation after the ring warms up, no pointer chasing,
   and the common Block case never rebuilds an event value (see
   {!Tea_core.Multi_replayer.feeder_block}). The daemon no longer queues
   events (it queues raw bytes, see server.ml); the benchmark replica
   does. *)

type t = {
  mutable buf : int array;  (* cap * 4 ints, stride-4 records *)
  mutable cap : int;  (* records; always a power of two *)
  mutable head : int;  (* record index of the next pop; < cap *)
  mutable len : int;  (* live records *)
}

(* control tags are the decoder's, so its records enqueue as they come *)
let tag_block = 0
let tag_switch = Tea_core.Pc_trace.tag_switch
let tag_invalidate = Tea_core.Pc_trace.tag_invalidate
let tag_interrupt = Tea_core.Pc_trace.tag_interrupt

let create () = { buf = Array.make (256 * 4) 0; cap = 256; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

(* doubling copy, unwrapping the ring so [head] restarts at 0; a plain
   int loop, since [Array.blit] into a major-heap array pays the write
   barrier per element *)
let grow t =
  let cap' = t.cap * 2 in
  let buf' = Array.make (cap' * 4) 0 in
  let mask = (t.cap * 4) - 1 and h = t.head * 4 in
  for j = 0 to (t.len * 4) - 1 do
    Array.unsafe_set buf' j (Array.unsafe_get t.buf ((h + j) land mask) : int)
  done;
  t.buf <- buf';
  t.cap <- cap';
  t.head <- 0

let push_raw t tag asid a b =
  if t.len = t.cap then grow t;
  let i = (t.head + t.len) land (t.cap - 1) * 4 in
  t.buf.(i) <- tag;
  t.buf.(i + 1) <- asid;
  t.buf.(i + 2) <- a;
  t.buf.(i + 3) <- b;
  t.len <- t.len + 1

let push_block t ~asid ~start ~insns = push_raw t tag_block asid start insns
let push_ctl t ~asid ~tag ~arg = push_raw t tag asid arg 0

let push t ~asid (ev : Tea_core.Pc_trace.event) =
  match ev with
  | Block { start; insns } -> push_block t ~asid ~start ~insns
  | Switch { asid = a } -> push_ctl t ~asid ~tag:tag_switch ~arg:a
  | Invalidate { asid = a } -> push_ctl t ~asid ~tag:tag_invalidate ~arg:a
  | Interrupt -> push_ctl t ~asid ~tag:tag_interrupt ~arg:0

let tag t = t.buf.(t.head * 4)
let asid t = t.buf.((t.head * 4) + 1)
let f1 t = t.buf.((t.head * 4) + 2)
let f2 t = t.buf.((t.head * 4) + 3)

let drop t =
  t.head <- (t.head + 1) land (t.cap - 1);
  t.len <- t.len - 1
