(* `tea_bench compare A B`: two sets of runs, metric by metric, judged
   against the bounds fixed in BENCHMARK.json. *)

(* The metrics BENCHMARK.json declares, end-to-end then per-layer. *)
let load_spec path =
  let j = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  let entries key =
    List.map
      (fun e ->
        {
          Catalog.name = Json.to_str (Json.member "name" e);
          unit_ = Json.to_str (Json.member "unit" e);
          better =
            (match Json.to_str (Json.member "better" e) with
            | "lower" -> Catalog.Lower
            | "higher" -> Catalog.Higher
            | s -> raise (Json.Error ("bad direction " ^ s)));
          bound =
            (match Json.member "bound" e with
            | Json.Num b -> Some b
            | _ -> None);
        })
      (Json.to_list (Json.member key j))
  in
  entries "end_to_end" @ entries "per_layer"

type side = { median : float; q1 : float; q3 : float; n : int }

let side values =
  let median = Stats.median values in
  match values with
  | [ _ ] -> { median; q1 = median; q3 = median; n = 1 }
  | _ ->
      let q1, _, q3 = Stats.quartiles values in
      { median; q1; q3; n = List.length values }

type verdict = Within | Regression | Better | Unresolved | Unbounded

let verdict_name = function
  | Within -> "ok"
  | Regression -> "REGRESSION"
  | Better -> "better"
  | Unresolved -> "unresolved"
  | Unbounded -> "-"

(* Relative change of B's median against A's, signed so that positive is
   worse for the metric's direction. *)
let worsening ~better a b =
  if a.median = 0.0 then 0.0
  else
    let d = (b.median -. a.median) /. Float.abs a.median in
    match better with Catalog.Lower -> d | Catalog.Higher -> -.d

let spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median

(* A change counts only when it clears both the bound and the run-to-run
   noise: a metric whose own spread is wider than its bound is unresolved
   unless every B run beats every A run. *)
let judge ~better ~bound a_vals b_vals =
  let a = side a_vals and b = side b_vals in
  let w = worsening ~better a b in
  let beats x y = match better with Catalog.Lower -> x < y | Catalog.Higher -> x > y in
  let all_better =
    List.for_all (fun bv -> List.for_all (fun av -> beats bv av) a_vals) b_vals
  in
  let v =
    match bound with
    | None -> Unbounded
    | Some bound ->
        if spread a > bound || spread b > bound then
          if all_better then Better else Unresolved
        else if w > bound then Regression
        else if all_better && -.w > spread a then Better
        else Within
  in
  (a, b, w, v)

type row = {
  workload : string;
  metric : string;
  unit_ : string;
  a : side;
  b : side;
  change : float;  (** B's median against A's, positive when worse *)
  verdict : verdict;
}

let values runs ~workload ~metric =
  List.concat_map
    (fun r ->
      if r.Report.workload <> workload then []
      else
        List.filter_map
          (fun m -> if m.Report.name = metric then Some m.Report.value else None)
          (r.Report.e2e @ r.Report.layers @ r.Report.extra))
    runs

let dedup l = List.sort_uniq compare l

let rows specs a_runs b_runs =
  let workloads =
    dedup (List.map (fun r -> r.Report.workload) (a_runs @ b_runs))
  in
  List.concat_map
    (fun workload ->
      let names =
        dedup
          (List.concat_map
             (fun r ->
               if r.Report.workload <> workload then []
               else
                 List.map
                   (fun m -> (m.Report.name, m.Report.unit_))
                   (r.Report.e2e @ r.Report.layers @ r.Report.extra))
             (a_runs @ b_runs))
      in
      (* catalog order first, then the workload-specific extras *)
      let rank (n, _) =
        let rec idx i = function
          | [] -> max_int
          | s :: _ when s.Catalog.name = n -> i
          | _ :: t -> idx (i + 1) t
        in
        idx 0 specs
      in
      let names = List.stable_sort (fun x y -> compare (rank x) (rank y)) names in
      List.filter_map
        (fun (metric, unit_) ->
          let av = values a_runs ~workload ~metric
          and bv = values b_runs ~workload ~metric in
          if av = [] || bv = [] then None
          else
            let better, bound =
              match List.find_opt (fun s -> s.Catalog.name = metric) specs with
              | Some s -> (s.Catalog.better, s.Catalog.bound)
              | None -> (Catalog.Lower, None)
            in
            let a, b, change, verdict = judge ~better ~bound av bv in
            Some { workload; metric; unit_; a; b; change; verdict })
        names)
    workloads

let render rows =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%-18s %-36s %-9s %26s %26s %8s  %s\n" "workload" "metric"
    "unit" "A median [q1, q3] (n)" "B median [q1, q3] (n)" "B worse" "verdict";
  let fmt s =
    Printf.sprintf "%.4g [%.4g, %.4g] (%d)" s.median s.q1 s.q3 s.n
  in
  List.iter
    (fun r ->
      Printf.bprintf b "%-18s %-36s %-9s %26s %26s %+7.1f%%  %s\n" r.workload
        r.metric r.unit_ (fmt r.a) (fmt r.b) (100.0 *. r.change)
        (verdict_name r.verdict))
    rows;
  Buffer.contents b

let regressions rows = List.filter (fun r -> r.verdict = Regression) rows
