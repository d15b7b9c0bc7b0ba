(* Dispatch-tier profiler for replay over packed images.

   Mirrors Tea_telemetry.Probe's global-installation pattern: a single
   atomic installation, one tally per domain (registered lazily under a
   mutex), and a static [None] fast path so replay loops pay one branch
   on a hoisted immutable local when profiling is disabled.

   Attribution is per resolved block: exactly one tier per step, charged
   to the *source* state (slot id of the packed image) the dispatch ran
   from. Slot ids are translated back to automaton state ids at report
   boundaries via [Packed.orig_state]. *)

let n_tiers = 4
let t_search = 0
let t_hash = 1
let t_miss = 2
let t_compiled = 3
let tier_names = [| "search"; "hash"; "miss"; "compiled" |]
let tier_name i = tier_names.(i)

type tally = {
  totals : int array; (* length n_tiers *)
  mutable states : int array; (* flattened: state * n_tiers + tier *)
}

type installation = {
  gen : int;
  mu : Mutex.t;
  mutable tallies : tally list; (* one per domain that profiled *)
}

let state : installation option Atomic.t = Atomic.make None
let generation = ref 0

let dls : (int * tally) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let enabled () = Atomic.get state <> None

let install () =
  match Atomic.get state with
  | Some _ -> invalid_arg "Tierstat.install: already installed"
  | None ->
      incr generation;
      Atomic.set state
        (Some { gen = !generation; mu = Mutex.create (); tallies = [] })

let tally () =
  match Atomic.get state with
  | None -> None
  | Some g -> (
      match Domain.DLS.get dls with
      | Some (gen, a) when gen = g.gen -> Some a
      | _ ->
          let a =
            { totals = Array.make n_tiers 0; states = Array.make 256 0 }
          in
          Mutex.lock g.mu;
          g.tallies <- a :: g.tallies;
          Mutex.unlock g.mu;
          Domain.DLS.set dls (Some (g.gen, a));
          Some a)

let[@inline never] grow a idx =
  let n = ref (Array.length a.states) in
  while idx >= !n do
    n := !n * 2
  done;
  let fresh = Array.make !n 0 in
  Array.blit a.states 0 fresh 0 (Array.length a.states);
  a.states <- fresh

let[@inline] bump_n a ~tier ~state n =
  Array.unsafe_set a.totals tier (n + Array.unsafe_get a.totals tier);
  let idx = (state * n_tiers) + tier in
  if idx >= Array.length a.states then grow a idx;
  Array.unsafe_set a.states idx (n + Array.unsafe_get a.states idx)

let[@inline] bump a ~tier ~state = bump_n a ~tier ~state 1

(* ---- snapshots ---- *)

type snapshot = {
  ts_totals : int array; (* length n_tiers *)
  ts_states : (int * int array) list;
      (* (state, per-tier counts), sorted by state, all-zero rows omitted *)
}

let empty = { ts_totals = Array.make n_tiers 0; ts_states = [] }
let total s = Array.fold_left ( + ) 0 s.ts_totals

let snapshot_of_tally a =
  let n_states = Array.length a.states / n_tiers in
  let rows = ref [] in
  for st = n_states - 1 downto 0 do
    let any = ref false in
    for t = 0 to n_tiers - 1 do
      if a.states.((st * n_tiers) + t) <> 0 then any := true
    done;
    if !any then
      rows :=
        (st, Array.init n_tiers (fun t -> a.states.((st * n_tiers) + t)))
        :: !rows
  done;
  { ts_totals = Array.copy a.totals; ts_states = !rows }

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

let snapshot () =
  match Atomic.get state with
  | None -> empty
  | Some g ->
      Mutex.lock g.mu;
      let ts = g.tallies in
      Mutex.unlock g.mu;
      merge_all (List.map snapshot_of_tally ts)

let uninstall () =
  let final = snapshot () in
  Atomic.set state None;
  final
