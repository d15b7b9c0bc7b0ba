(* Dispatch tiers, read off a replayer's counter array.

   Every resolved block bumps exactly one counter ({!Packed.n_counters}):
   an in-span edge, a hash hit or a hash miss, the last two by original
   source state. So the tier of each block, charged to its source, is a
   pure function of the counters: compiled = visits - span misses, hash
   and miss are the two per-state blocks. Nothing is counted per block
   here.

   [install]/[uninstall] keep the totals-only tally the repository
   benchmark reads: each compiled batch adds its three totals once. *)

let n_tiers = 3
let t_hash = 0
let t_miss = 1
let t_compiled = 2
let tier_names = [| "hash"; "miss"; "compiled" |]
let tier_name i = tier_names.(i)

type snapshot = {
  ts_totals : int array; (* length n_tiers *)
  ts_states : (int * int array) list;
      (* (state, per-tier counts), sorted by state, all-zero rows omitted *)
}

let empty = { ts_totals = Array.make n_tiers 0; ts_states = [] }
let total s = Array.fold_left ( + ) 0 s.ts_totals

let of_counters image counts =
  if Array.length counts <> Packed.n_counters image then
    invalid_arg "Tierstat.of_counters: counter array does not match the image";
  let ep = Packed.edge_profile image counts in
  let ne = Packed.n_edges image in
  let totals = Array.make n_tiers 0 in
  let rows = ref [] in
  for o = Packed.n_slots image - 1 downto 0 do
    let row = Array.make n_tiers 0 in
    row.(t_hash) <- counts.(ne + o);
    row.(t_miss) <- ep.Packed.misses.(o) - row.(t_hash);
    row.(t_compiled) <- ep.Packed.visits.(o) - ep.Packed.misses.(o);
    if Array.exists (fun v -> v <> 0) row then begin
      Array.iteri (fun t v -> totals.(t) <- totals.(t) + v) row;
      rows := (o, row) :: !rows
    end
  done;
  { ts_totals = totals; ts_states = !rows }

let rec merge_rows a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (sa, va) :: ta, (sb, vb) :: tb ->
      if sa < sb then (sa, va) :: merge_rows ta b
      else if sb < sa then (sb, vb) :: merge_rows a tb
      else (sa, Array.init n_tiers (fun t -> va.(t) + vb.(t))) :: merge_rows ta tb

let merge a b =
  {
    ts_totals = Array.init n_tiers (fun t -> a.ts_totals.(t) + b.ts_totals.(t));
    ts_states = merge_rows a.ts_states b.ts_states;
  }

let merge_all = List.fold_left merge empty
let equal (a : snapshot) (b : snapshot) = a = b

(* ---- installed totals ---- *)

let installed : int Atomic.t array option Atomic.t = Atomic.make None

let install () =
  let fresh = Some (Array.init n_tiers (fun _ -> Atomic.make 0)) in
  if not (Atomic.compare_and_set installed None fresh) then
    invalid_arg "Tierstat.install: already installed"

let add_totals ~hash ~miss ~compiled =
  match Atomic.get installed with
  | None -> ()
  | Some a ->
      ignore (Atomic.fetch_and_add a.(t_hash) hash);
      ignore (Atomic.fetch_and_add a.(t_miss) miss);
      ignore (Atomic.fetch_and_add a.(t_compiled) compiled)

let uninstall () =
  match Atomic.exchange installed None with
  | None -> empty
  | Some a -> { ts_totals = Array.map Atomic.get a; ts_states = [] }
