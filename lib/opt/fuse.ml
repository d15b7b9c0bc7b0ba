module Packed = Tea_core.Packed
module Replayer = Tea_core.Replayer
module Compiled = Tea_core.Compiled

let default_min_chain = 2

let default_min_expected_run = 4.0

let default_min_coverage = 0.5

(* A slot is a chain candidate when its next in-trace transition is
   forced: exactly one edge, landing in-trace. NTE never joins a chain
   (its span describes trace heads, not a forced path). *)
let candidates packed =
  let raw = Packed.to_raw packed in
  let offsets = raw.Packed.offsets in
  let targets = raw.Packed.targets in
  let n = Array.length offsets - 1 in
  let next = Array.make n (-1) in
  for s = 1 to n - 1 do
    if offsets.(s + 1) - offsets.(s) = 1 && targets.(offsets.(s)) <> 0 then
      next.(s) <- targets.(offsets.(s))
  done;
  next

type chain = { members : int list; cyclic : bool }

(* Maximal-chain decomposition of the candidate graph (out-degree <= 1 by
   construction). Three claiming passes cover every candidate exactly
   once:
   - self-loops become 1-member cyclic chains outright;
   - every candidate that is not the unique candidate-continuation of
     another candidate heads a straight chain, walked forward while the
     successor is an unclaimed candidate with candidate-in-degree 1;
   - what remains has in-degree exactly 1 from candidates on both ends —
     disjoint pure cycles — peeled from the lowest slot id of each.
   Claiming everything in pass order (and only filtering short straight
   chains at emission) is what makes the cycle peel terminate: a cycle
   walk can never run into an already-claimed slot. *)
let decompose next =
  let n = Array.length next in
  let indeg = Array.make n 0 in
  for s = 0 to n - 1 do
    let t = next.(s) in
    if t >= 0 && next.(t) >= 0 then indeg.(t) <- indeg.(t) + 1
  done;
  let claimed = Array.make n false in
  let chains = ref [] in
  (* self-loops *)
  for s = 0 to n - 1 do
    if next.(s) = s then begin
      claimed.(s) <- true;
      chains := { members = [ s ]; cyclic = true } :: !chains
    end
  done;
  (* straight chains from heads *)
  for s = 0 to n - 1 do
    if next.(s) >= 0 && (not claimed.(s)) && indeg.(s) <> 1 then begin
      let members = ref [ s ] in
      claimed.(s) <- true;
      let cur = ref next.(s) in
      while
        next.(!cur) >= 0 && (not claimed.(!cur)) && indeg.(!cur) = 1
      do
        members := !cur :: !members;
        claimed.(!cur) <- true;
        cur := next.(!cur)
      done;
      (* A chain whose final forced edge re-enters its own head is a
         back-edge cycle (the hot-loop shape): mark it cyclic so replay
         may wrap the signature match and fast-forward iterations. *)
      chains := { members = List.rev !members; cyclic = !cur = s } :: !chains
    end
  done;
  (* pure cycles *)
  for s = 0 to n - 1 do
    if next.(s) >= 0 && not claimed.(s) then begin
      let members = ref [ s ] in
      claimed.(s) <- true;
      let cur = ref next.(s) in
      while !cur <> s do
        members := !cur :: !members;
        claimed.(!cur) <- true;
        cur := next.(!cur)
      done;
      chains := { members = List.rev !members; cyclic = true } :: !chains
    end
  done;
  List.rev !chains

(* Expected match-run length of a chain under a geometric continuation
   model: each member's continuation probability is the profiled fraction
   of its dispatches that took its forced edge (1.0 for never-visited
   states — fusing those costs nothing at runtime). A straight chain's
   expectation is the sum of prefix products; a cyclic chain repeats with
   per-lap survival prod(c_i). Chain entries can start mid-chain, so this
   is an estimate, not an exact value — good enough to separate
   steady-state loop backbones from chains the stream escapes every lap
   or two, where per-entry match overhead beats the bulk-charge win. *)
let expected_run offsets prof ch =
  let cont s =
    let v = prof.Repack.visits.(s) in
    if v = 0 then 1.0
    else float_of_int prof.Repack.taken.(offsets.(s)) /. float_of_int v
  in
  let e = ref 0.0 and p = ref 1.0 in
  List.iter
    (fun s ->
      p := !p *. cont s;
      e := !e +. !p)
    ch.members;
  if not ch.cyclic then !e
  else if !p >= 0.999_999 then infinity
  else !e /. (1.0 -. !p)

let fuse ?(min_chain = default_min_chain) ?profile
    ?(min_expected_run = default_min_expected_run)
    ?(min_coverage = default_min_coverage) packed =
  if min_chain < 1 then invalid_arg "Fuse.fuse: min_chain must be >= 1";
  let raw = Packed.to_raw packed in
  let offsets = raw.Packed.offsets in
  let labels = raw.Packed.labels in
  let targets = raw.Packed.targets in
  let n = Array.length offsets - 1 in
  (match profile with
  | None -> ()
  | Some p ->
      if
        Array.length p.Repack.visits <> n
        || Array.length p.Repack.taken <> Array.length targets
      then invalid_arg "Fuse.fuse: profile shape does not match the image");
  let next = candidates packed in
  let keep ch =
    (ch.cyclic || List.length ch.members >= min_chain)
    &&
    match profile with
    | None -> true
    | Some p -> expected_run offsets p ch >= min_expected_run
  in
  let kept = List.filter keep (decompose next) in
  (* Whole-image coverage gate: every dispatch from an unchained state —
     or past a signature divergence — pays the chain matcher's
     fall-through to the ordinary closure, whether or not any chain
     nearby matched. When the
     profile says chain matching would absorb too small a share of the
     stream's dispatches to recoup that, the honest answer is not to
     fuse this image at all. *)
  let kept =
    match profile with
    | None -> kept
    | Some p ->
        let total = Array.fold_left ( + ) 0 p.Repack.visits in
        let matched =
          List.fold_left
            (fun acc ch ->
              List.fold_left
                (fun acc s -> acc + p.Repack.taken.(offsets.(s)))
                acc ch.members)
            0 kept
        in
        if float_of_int matched < min_coverage *. float_of_int (max 1 total)
        then []
        else kept
  in
  if kept = [] then packed
  else begin
    let n_chains = List.length kept in
    let fchain = Array.make n (-1) in
    let fpos = Array.make n 0 in
    let foff = Array.make (n_chains + 1) 0 in
    let fcyc = Array.make n_chains 0 in
    List.iteri
      (fun c ch ->
        foff.(c + 1) <- foff.(c) + List.length ch.members;
        if ch.cyclic then fcyc.(c) <- 1;
        List.iteri
          (fun p s ->
            fchain.(s) <- c;
            fpos.(s) <- p)
          ch.members)
      kept;
    let n_fedges = foff.(n_chains) in
    let fsig = Array.make n_fedges 0 in
    let ftgt = Array.make n_fedges 0 in
    let fecost = Array.make n_fedges 0 in
    (* Each member contributes its single forced edge, at the exact
       simulated cost the unfused dispatch charges to resolve it — the
       image's precomputed edge_cost — which is what makes bulk charging
       exact. *)
    let edge_cost, _ = Packed.resolution_costs packed in
    List.iteri
      (fun c ch ->
        List.iteri
          (fun p s ->
            let e = foff.(c) + p in
            let lo = offsets.(s) in
            fsig.(e) <- labels.(lo);
            ftgt.(e) <- targets.(lo);
            fecost.(e) <- edge_cost.(lo))
          ch.members)
      kept;
    Packed.with_fusion packed
      { Packed.fchain; fpos; foff; fcyc; fsig; ftgt; fecost }
  end

let fused_replay ?min_chain ?profile ?min_expected_run ?min_coverage src ?insns
    addrs ~len =
  let baseline = Replayer.create_compiled (Compiled.of_packed src) in
  Replayer.feed_run baseline ?insns addrs ~len;
  let fused = fuse ?min_chain ?profile ?min_expected_run ?min_coverage src in
  let tuned = Replayer.create_compiled (Compiled.of_packed fused) in
  Replayer.feed_run tuned ?insns addrs ~len;
  (fused, baseline, tuned)
