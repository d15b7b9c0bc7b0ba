module Packed = Tea_core.Packed
module Replayer = Tea_core.Replayer
module Compiled = Tea_core.Compiled
module Automaton = Tea_core.Automaton

type profile = Packed.edge_profile = {
  visits : int array;
  taken : int array;
  misses : int array;
}

let empty_profile packed =
  {
    visits = Array.make (Packed.n_slots packed) 0;
    taken = Array.make (Packed.n_edges packed) 0;
    misses = Array.make (Packed.n_slots packed) 0;
  }

let visit_counts p =
  List.filter (fun (_, v) -> v > 0) (List.mapi (fun i v -> (i, v)) (Array.to_list p.visits))

let merge a b =
  if
    Array.length a.visits <> Array.length b.visits
    || Array.length a.taken <> Array.length b.taken
    || Array.length a.misses <> Array.length b.misses
  then invalid_arg "Repack.merge: profiles from different images";
  {
    visits = Array.map2 ( + ) a.visits b.visits;
    taken = Array.map2 ( + ) a.taken b.taken;
    misses = Array.map2 ( + ) a.misses b.misses;
  }

(* Pure edge lookup over the raw arrays, honoring the image's own layout
   (hot prefix + sorted tail; a flat image is the hot_len = 0 case). Used
   by the counting walk so collection disturbs no engine counters. *)
let find_edge (raw : Packed.raw) s pc =
  let lo = raw.Packed.offsets.(s) and hi = raw.Packed.offsets.(s + 1) in
  let stop = lo + raw.Packed.hot_len.(s) in
  let rec lin i =
    if i >= stop then -1
    else if raw.Packed.labels.(i) = pc then i
    else lin (i + 1)
  in
  let e = lin lo in
  if e >= 0 then e
  else if hi <= stop then -1
  else begin
    let base = ref stop and l = ref (hi - stop) in
    while !l > 1 do
      let half = !l lsr 1 in
      if raw.Packed.labels.(!base + half) <= pc then base := !base + half;
      l := !l - half
    done;
    if raw.Packed.labels.(!base) = pc then !base else -1
  end

let collect ?(state = Automaton.nte) packed ?(off = 0) addrs ~len =
  if len < 0 || off < 0 || off + len > Array.length addrs then
    invalid_arg "Repack.collect: len out of range";
  let p = empty_profile packed in
  if state < 0 || state >= Packed.n_slots packed then
    invalid_arg "Repack.collect: state id outside the image";
  let raw = Packed.to_raw packed in
  let st = ref state in
  for i = off to off + len - 1 do
    let pc = addrs.(i) in
    let s = !st in
    p.visits.(s) <- p.visits.(s) + 1;
    let e = find_edge raw s pc in
    if e >= 0 then begin
      p.taken.(e) <- p.taken.(e) + 1;
      st := raw.Packed.targets.(e)
    end
    else begin
      p.misses.(s) <- p.misses.(s) + 1;
      st :=
        (match Packed.head_of packed pc with
        | Some h -> h
        | None -> Automaton.nte)
    end
  done;
  p

(* Repacking is a pure permutation, so the walk over [img]'s layout
   visits the image of every state and edge the flat walk visits: the
   original-id profile, re-indexed. *)
let permute img (p : profile) =
  if not (Packed.is_repacked img) then p
  else
    {
      visits = Array.init (Packed.n_slots img) (fun s -> p.visits.(Packed.orig_state img s));
      taken = Array.init (Packed.n_edges img) (fun e -> p.taken.(Packed.edge_orig img e));
      misses = Array.init (Packed.n_slots img) (fun s -> p.misses.(Packed.orig_state img s));
    }

let default_hot_prefix = 4

(* Exact profile-weighted scan cost of giving a span a hot prefix of
   length [k]: the j-th most-taken edge resolves in j+1 linear probes, the
   rest (and every miss) pay the whole prefix plus the binary search over
   the tail. [taken_desc] is sorted descending. Measured in the engine's
   own units ({!Packed.cost_search_step} per probe/halving), so the argmin
   below minimizes exactly what replay will charge. *)
let span_cost taken_desc ~misses ~k =
  let n = Array.length taken_desc in
  let tail_len = n - k in
  let tail_c = if tail_len > 0 then Packed.halvings tail_len + 1 else 0 in
  let full = k + tail_c in
  let c = ref (misses * full) in
  for j = 0 to n - 1 do
    c := !c + (taken_desc.(j) * if j < k then j + 1 else full)
  done;
  !c * Packed.cost_search_step

let repack ?(hot_prefix = default_hot_prefix) src prof =
  if hot_prefix < 0 then invalid_arg "Repack.repack: negative hot_prefix";
  let n = Packed.n_slots src in
  if
    Array.length prof.visits <> n
    || Array.length prof.taken <> Packed.n_edges src
    || Array.length prof.misses <> n
  then invalid_arg "Repack.repack: profile shape does not match the image";
  let raw = Packed.to_raw src in
  (* Slot order: NTE pinned at 0, then hotness-descending; ties keep
     source order so an empty profile yields the identity permutation. *)
  let old_of_new = Array.init n (fun i -> i) in
  let body = Array.sub old_of_new 1 (max 0 (n - 1)) in
  Array.sort
    (fun a b ->
      let c = Int.compare prof.visits.(b) prof.visits.(a) in
      if c <> 0 then c else Int.compare a b)
    body;
  Array.blit body 0 old_of_new 1 (Array.length body);
  let new_of_old = Array.make n 0 in
  Array.iteri (fun nw old -> new_of_old.(old) <- nw) old_of_new;
  let n_edges = Packed.n_edges src in
  let offsets = Array.make (n + 1) 0 in
  let labels = Array.make n_edges 0 in
  let targets = Array.make n_edges 0 in
  let hot_len = Array.make n 0 in
  let state_trace = Array.make n (-1) in
  let state_tbb = Array.make n 0 in
  let state_start = Array.make n 0 in
  let state_insns = Array.make n 0 in
  let orig_of = Array.make n 0 in
  for nw = 0 to n - 1 do
    let old = old_of_new.(nw) in
    state_trace.(nw) <- raw.Packed.state_trace.(old);
    state_tbb.(nw) <- raw.Packed.state_tbb.(old);
    state_start.(nw) <- raw.Packed.state_start.(old);
    state_insns.(nw) <- raw.Packed.state_insns.(old);
    orig_of.(nw) <- Packed.orig_state src old;
    let lo = raw.Packed.offsets.(old) and hi = raw.Packed.offsets.(old + 1) in
    let span = hi - lo in
    let out = offsets.(nw) in
    offsets.(nw + 1) <- out + span;
    if span > 0 then begin
      (* edges ordered most-taken-first (label ascending on ties, for a
         deterministic layout) *)
      let order = Array.init span (fun i -> lo + i) in
      Array.sort
        (fun a b ->
          let c = Int.compare prof.taken.(b) prof.taken.(a) in
          if c <> 0 then c
          else Int.compare raw.Packed.labels.(a) raw.Packed.labels.(b))
        order;
      let taken_desc = Array.map (fun e -> prof.taken.(e)) order in
      (* exact argmin over the candidate prefix lengths; k = 0 is the
         source layout's cost, so the chosen layout never charges more
         than the source did on the profiling stream *)
      let misses = prof.misses.(old) in
      let best_k = ref 0 in
      let best_c = ref (span_cost taken_desc ~misses ~k:0) in
      for k = 1 to min hot_prefix span do
        let c = span_cost taken_desc ~misses ~k in
        if c < !best_c then begin
          best_c := c;
          best_k := k
        end
      done;
      let k = !best_k in
      hot_len.(nw) <- k;
      for j = 0 to k - 1 do
        let e = order.(j) in
        labels.(out + j) <- raw.Packed.labels.(e);
        targets.(out + j) <- new_of_old.(raw.Packed.targets.(e))
      done;
      let tail = Array.sub order k (span - k) in
      Array.sort
        (fun a b -> Int.compare raw.Packed.labels.(a) raw.Packed.labels.(b))
        tail;
      Array.iteri
        (fun j e ->
          labels.(out + k + j) <- raw.Packed.labels.(e);
          targets.(out + k + j) <- new_of_old.(raw.Packed.targets.(e)))
        tail
    end
  done;
  (* Rebuild the head hash over the renumbered states. Re-inserting in
     address order reproduces {!Packed.freeze}'s insertion order, so the
     probe-chain layout — and with it the hash-path cycle charges — are
     unchanged from the source image. *)
  let heads = ref [] in
  Array.iteri
    (fun i key ->
      if key >= 0 then
        heads := (key, new_of_old.(raw.Packed.hash_vals.(i))) :: !heads)
    raw.Packed.hash_keys;
  let heads = List.sort (fun (a, _) (b, _) -> Int.compare a b) !heads in
  let hash_keys, hash_vals = Packed.build_hash heads n in
  let raw2 =
    {
      Packed.offsets;
      labels;
      targets;
      state_trace;
      state_tbb;
      state_start;
      state_insns;
      hash_keys;
      hash_vals;
      hot_len;
      orig_of;
    }
  in
  match Packed.automaton src with
  | Some auto -> Packed.of_raw ~auto ~repacked:true raw2
  | None -> Packed.of_raw ~repacked:true raw2

let moved_states packed =
  let n = Packed.n_slots packed in
  let moved = ref 0 in
  for s = 0 to n - 1 do
    if Packed.orig_state packed s <> s then incr moved
  done;
  !moved

(* ---- edge-profile serialization (TEAEP1) ----

   magic "TEAEP1" | varint n_slots | varint n_edges
   | n_slots visit varints | n_edges taken varints | n_slots miss varints

   Counts are non-negative ints; LEB128 varints keep typical profiles
   (mostly small counts) compact. Plain Stdlib channels — the format is
   shared with offline tooling ([tea_tool repack --save-profile],
   [tea_tool info --profile]) and the serve daemon's drift reference. *)

let profile_magic = "TEAEP1"

let put_varint buf v =
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let save_profile path p =
  let buf = Buffer.create (4096 + (Array.length p.taken * 2)) in
  Buffer.add_string buf profile_magic;
  put_varint buf (Array.length p.visits);
  put_varint buf (Array.length p.taken);
  Array.iter (fun v -> put_varint buf (max 0 v)) p.visits;
  Array.iter (fun v -> put_varint buf (max 0 v)) p.taken;
  Array.iter (fun v -> put_varint buf (max 0 v)) p.misses;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf)

let load_profile path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let corrupt what = failwith ("Repack.load_profile: " ^ what) in
      let magic = Bytes.create (String.length profile_magic) in
      (try really_input ic magic 0 (Bytes.length magic)
       with End_of_file -> corrupt "truncated header");
      if Bytes.to_string magic <> profile_magic then corrupt "bad magic";
      let get_varint () =
        let v = ref 0 and shift = ref 0 and stop = ref false in
        while not !stop do
          let byte =
            try input_byte ic with End_of_file -> corrupt "truncated varint"
          in
          if !shift > 56 then corrupt "varint overflow";
          v := !v lor ((byte land 0x7f) lsl !shift);
          shift := !shift + 7;
          if byte < 0x80 then stop := true
        done;
        (* a 9-byte varint can set the sign bit *)
        if !v < 0 then corrupt "negative value";
        !v
      in
      let n_slots = get_varint () in
      let n_edges = get_varint () in
      if n_slots < 1 || n_edges < 0 then corrupt "implausible shape";
      (* every value takes at least one byte: never size an array beyond
         what the file can hold *)
      let left = in_channel_length ic - pos_in ic in
      if n_slots > left / 2 || n_edges > left - (2 * n_slots) then
        corrupt "array lengths exceed the file";
      let read_array n = Array.init n (fun _ -> get_varint ()) in
      let visits = read_array n_slots in
      let taken = read_array n_edges in
      let misses = read_array n_slots in
      (match input_char ic with
      | _ -> corrupt "trailing bytes"
      | exception End_of_file -> ());
      { visits; taken; misses })

let pgo_replay ?hot_prefix src ?insns addrs ~len =
  let baseline = Replayer.create_compiled (Compiled.of_packed (Packed.dup src)) in
  Replayer.feed_run baseline ?insns addrs ~len;
  let prof = collect src addrs ~len in
  let repacked = repack ?hot_prefix src prof in
  let tuned =
    Replayer.create_compiled (Compiled.of_packed (Packed.dup repacked))
  in
  Replayer.feed_run tuned ?insns addrs ~len;
  (repacked, baseline, tuned)
