type trace_stats = {
  trace_id : int;
  entries : int;
  tbb_executions : int;
  insns_executed : int;
  completion_ratio : float;
}

(* Per-trace analytics need the automaton's state metadata; a packed image
   reconstituted from bytes has none, so analyses degrade to empty. *)
let automaton_of rep = Replayer.automaton rep

(* count lookup over one derivation of the replayer's per-state counts *)
let counter rep =
  let counts = Replayer.state_counts rep in
  fun s -> if s >= 0 && s < Array.length counts then counts.(s) else 0

let per_trace rep =
  match automaton_of rep with
  | None -> []
  | Some auto ->
  let count_of_state = counter rep in
  List.filter_map
    (fun id ->
      let states = Automaton.states_of_trace auto id in
      let live = List.filter (Automaton.is_live auto) states in
      let n_tbbs = List.length live in
      if n_tbbs = 0 then None
      else begin
        let entries = ref 0 and execs = ref 0 and insns = ref 0 in
        List.iter
          (fun s ->
            let c = count_of_state s in
            execs := !execs + c;
            (match Automaton.state_info auto s with
            | Some info ->
                insns := !insns + (c * info.Automaton.n_insns);
                if info.Automaton.tbb_index = 0 then entries := !entries + c
            | None -> ()))
          live;
        if !execs = 0 then None
        else
          let completion_ratio =
            if !entries = 0 then 0.0
            else
              float_of_int !execs /. (float_of_int !entries *. float_of_int n_tbbs)
          in
          Some
            {
              trace_id = id;
              entries = !entries;
              tbb_executions = !execs;
              insns_executed = !insns;
              completion_ratio;
            }
      end)
    (Automaton.trace_ids auto)
  |> List.sort (fun a b -> Int.compare b.insns_executed a.insns_executed)

let hottest ?(n = 10) rep =
  let all = per_trace rep in
  List.filteri (fun i _ -> i < n) all

type exit_site = {
  state : Automaton.state;
  site_trace : int;
  site_tbb : int;
  block_start : int;
  executions : int;
  out_edges : int;
}

let side_exit_candidates ?(n = 10) rep =
  match automaton_of rep with
  | None -> []
  | Some auto ->
  let count_of_state = counter rep in
  let sites = ref [] in
  Automaton.iter_live
    (fun s info ->
      let out_edges = List.length (Automaton.edges_of auto s) in
      if out_edges = 0 then
        let executions = count_of_state s in
        if executions > 0 then
          sites :=
            {
              state = s;
              site_trace = info.Automaton.trace_id;
              site_tbb = info.Automaton.tbb_index;
              block_start = info.Automaton.block_start;
              executions;
              out_edges;
            }
            :: !sites)
    auto;
  List.sort (fun a b -> Int.compare b.executions a.executions) !sites
  |> List.filteri (fun i _ -> i < n)

let coverage_summary rep =
  let top = hottest ~n:1 rep in
  Printf.sprintf "coverage %.1f%%, %d trace entries, %d exits%s"
    (100.0 *. Replayer.coverage rep)
    (Replayer.trace_enters rep) (Replayer.trace_exits rep)
    (match top with
    | [ t ] ->
        Printf.sprintf ", hottest trace %d (%d insns, completion %.2f)"
          t.trace_id t.insns_executed t.completion_ratio
    | _ -> "")

let pp_trace_stats fmt t =
  Format.fprintf fmt
    "trace %d: %d entries, %d TBB execs, %d insns, completion %.2f" t.trace_id
    t.entries t.tbb_executions t.insns_executed t.completion_ratio
