module Packed = Tea_core.Packed
module Compiled = Tea_core.Compiled
module Replayer = Tea_core.Replayer

let compile packed = Compiled.of_packed packed

let compiled_replay src ?insns addrs ~len =
  let compiled = Compiled.of_packed src in
  let tuned = Replayer.create_compiled compiled in
  (* first, so feed_run validates [len] and [insns] for both sides *)
  Replayer.feed_run tuned ?insns addrs ~len;
  let baseline = Replayer.create_compiled compiled in
  for i = 0 to len - 1 do
    let insns = match insns with Some a -> a.(i) | None -> 0 in
    Replayer.feed_addr baseline ~insns addrs.(i)
  done;
  (compiled, baseline, tuned)

let describe c =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let base = Compiled.base c in
  line "compiled dispatch: %d closures over %d slots" (Compiled.n_closures c)
    (Packed.n_slots base);
  List.iter
    (fun (deg, n) -> line "  fan-out %d: %d states" deg n)
    (Compiled.degree_histogram c);
  line "  straight-line region states: %d" (Compiled.region_states c);
  line "  fused-chain matcher closures: %d" (Compiled.chained_states c);
  Buffer.contents buf
