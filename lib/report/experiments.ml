module Spec = Tea_workloads.Spec2000
module Proggen = Tea_workloads.Proggen
module Stardbt = Tea_dbt.Stardbt
module Trace_set = Tea_traces.Trace_set
module Registry = Tea_traces.Registry
module Automaton = Tea_core.Automaton
module Builder = Tea_core.Builder
module Pool = Tea_parallel.Pool

type bench = {
  profile : Proggen.profile;
  image : Tea_isa.Image.t;
  dbt : (string * Stardbt.result) list;
}

(* Every driver below is a per-benchmark [List.map] with independent,
   deterministic bodies, so the parallel version is just the same map run
   on a pool: results come back in benchmark order and each body computes
   exactly what it computes sequentially — which is why every rendered
   table is byte-identical whatever [--jobs] is. *)
let pmap ?pool f xs =
  match pool with None -> List.map f xs | Some p -> Pool.map_list p f xs

let credit ?pool n =
  match pool with None -> () | Some p -> Pool.add_units p n

let prepare ?pool ?benchmarks ?config ?fuel () =
  let profiles =
    match benchmarks with
    | None -> Spec.all
    | Some names ->
        List.filter_map
          (fun n ->
            match Spec.by_name n with
            | Some p -> Some p
            | None -> invalid_arg (Printf.sprintf "Experiments.prepare: %s" n))
          names
  in
  pmap ?pool
    (fun profile ->
      Tea_telemetry.Probe.with_span
        ("prepare/" ^ profile.Proggen.name)
      @@ fun () ->
      let image = Spec.image profile in
      let dbt =
        List.map
          (fun (name, strategy) ->
            (name, Stardbt.record ?config ?fuel ~strategy image))
          Registry.all
      in
      credit ?pool
        (List.fold_left (fun acc (_, r) -> acc + r.Stardbt.total_insns) 0 dbt);
      { profile; image; dbt })
    profiles

let mret_traces b = Trace_set.to_list (List.assoc "mret" b.dbt).Stardbt.set

let mcycles c = float_of_int c /. 1.0e6

(* ---------- Table 1 ---------- *)

type size_cell = { dbt_bytes : int; tea_bytes : int; saving : float }

type table1_row = { t1_name : string; cells : (string * size_cell) list }

let table1 ?pool benches =
  pmap ?pool
    (fun b ->
      let cells =
        List.map
          (fun (strategy, (r : Stardbt.result)) ->
            Tea_telemetry.Probe.with_span
              ("table1/" ^ b.profile.Proggen.name ^ "/" ^ strategy)
              ~post:(fun (_, c) ->
                [ ("tea_bytes", string_of_int c.tea_bytes) ])
            @@ fun () ->
            let dbt_bytes = Trace_set.dbt_bytes r.Stardbt.set b.image in
            let tea_bytes =
              Automaton.byte_size (Builder.of_set r.Stardbt.set)
            in
            ( strategy,
              { dbt_bytes; tea_bytes; saving = Stats.savings ~dbt:dbt_bytes ~tea:tea_bytes }
            ))
          b.dbt
      in
      { t1_name = b.profile.Proggen.name; cells })
    benches

let render_table1 rows =
  let strategies = match rows with [] -> [] | r :: _ -> List.map fst r.cells in
  let header =
    "benchmark"
    :: List.concat_map
         (fun s ->
           let s = String.uppercase_ascii s in
           [ s ^ " DBT"; s ^ " TEA"; "Savings" ])
         strategies
  in
  let body =
    List.map
      (fun r ->
        r.t1_name
        :: List.concat_map
             (fun (_, c) ->
               [
                 string_of_int (Stats.kb c.dbt_bytes);
                 string_of_int (Stats.kb c.tea_bytes);
                 Stats.percent c.saving;
               ])
             r.cells)
      rows
  in
  let geomeans =
    "GeoMean"
    :: List.concat_map
         (fun s ->
           let savings =
             List.map (fun r -> (List.assoc s r.cells).saving) rows
           in
           [ ""; ""; Stats.percent (Stats.geomean savings) ])
         strategies
  in
  "Table 1: Size Savings with TEA (sizes in KB)\n"
  ^ Table.render ~header (body @ [ geomeans ])

(* ---------- Table 2 ---------- *)

type table2_row = {
  t2_name : string;
  tea_coverage : float;
  tea_mcycles : float;
  dbt_coverage : float;
  dbt_mcycles : float;
}

let table2 ?pool ?fuel benches =
  pmap ?pool
    (fun b ->
      Tea_telemetry.Probe.with_span ("table2/" ^ b.profile.Proggen.name)
        ~post:(fun r ->
          [ ("sim_mcycles", Printf.sprintf "%.2f" r.tea_mcycles) ])
      @@ fun () ->
      let traces = mret_traces b in
      let dbt_result = List.assoc "mret" b.dbt in
      let res, _rep = Tea_pinsim.Pintool_replay.replay ?fuel ~traces b.image in
      credit ?pool res.Tea_pinsim.Pintool_replay.total_insns;
      {
        t2_name = b.profile.Proggen.name;
        tea_coverage = res.Tea_pinsim.Pintool_replay.coverage;
        tea_mcycles = mcycles res.Tea_pinsim.Pintool_replay.total_cycles;
        dbt_coverage = dbt_result.Stardbt.coverage;
        dbt_mcycles = mcycles dbt_result.Stardbt.dbt_cycles;
      })
    benches

let render_cov_time ~title rows =
  let header =
    [ "Benchmark"; "TEA Coverage"; "TEA Time"; "DBT Coverage"; "DBT Time" ]
  in
  let body =
    List.map
      (fun (name, tc, tt, dc, dt) ->
        [ name; Stats.percent1 tc; Printf.sprintf "%.1f" tt;
          Stats.percent1 dc; Printf.sprintf "%.1f" dt ])
      rows
  in
  let geo f = Stats.geomean (List.map f rows) in
  let geomeans =
    [
      "GeoMean";
      Stats.percent1 (geo (fun (_, tc, _, _, _) -> tc));
      Printf.sprintf "%.1f" (geo (fun (_, _, tt, _, _) -> tt));
      Stats.percent1 (geo (fun (_, _, _, dc, _) -> dc));
      Printf.sprintf "%.1f" (geo (fun (_, _, _, _, dt) -> dt));
    ]
  in
  title ^ " (Time in simulated Mcycles)\n"
  ^ Table.render ~header (body @ [ geomeans ])

let render_table2 rows =
  render_cov_time ~title:"Table 2: TEA Runtime Aspects - Replaying"
    (List.map
       (fun r -> (r.t2_name, r.tea_coverage, r.tea_mcycles, r.dbt_coverage, r.dbt_mcycles))
       rows)

(* ---------- Table 3 ---------- *)

type table3_row = {
  t3_name : string;
  pin_coverage : float;
  pin_mcycles : float;
  sdbt_coverage : float;
  sdbt_mcycles : float;
  n_traces : int;
}

let table3 ?pool ?fuel benches =
  let mret = List.assoc "mret" Registry.all in
  pmap ?pool
    (fun b ->
      Tea_telemetry.Probe.with_span ("table3/" ^ b.profile.Proggen.name)
        ~post:(fun r ->
          [ ("sim_mcycles", Printf.sprintf "%.2f" r.pin_mcycles) ])
      @@ fun () ->
      let dbt_result = List.assoc "mret" b.dbt in
      let res, _online =
        Tea_pinsim.Pintool_record.record ?fuel ~strategy:mret b.image
      in
      credit ?pool res.Tea_pinsim.Pintool_record.total_insns;
      {
        t3_name = b.profile.Proggen.name;
        pin_coverage = res.Tea_pinsim.Pintool_record.coverage;
        pin_mcycles = mcycles res.Tea_pinsim.Pintool_record.total_cycles;
        sdbt_coverage = dbt_result.Stardbt.coverage;
        sdbt_mcycles = mcycles dbt_result.Stardbt.dbt_cycles;
        n_traces = List.length res.Tea_pinsim.Pintool_record.traces;
      })
    benches

let render_table3 rows =
  render_cov_time ~title:"Table 3: TEA Runtime Aspects - Recording"
    (List.map
       (fun r ->
         (r.t3_name, r.pin_coverage, r.pin_mcycles, r.sdbt_coverage, r.sdbt_mcycles))
       rows)

(* ---------- Table 4 ---------- *)

type table4_row = { t4_name : string; row : Tea_pinsim.Overhead.row }

let table4 ?pool ?pgo ?fuse ?fuel benches =
  pmap ?pool
    (fun b ->
      Tea_telemetry.Probe.with_span ("table4/" ^ b.profile.Proggen.name)
        ~post:(fun r ->
          [ ("global_local", Printf.sprintf "%.2f" r.row.Tea_pinsim.Overhead.global_local) ])
      @@ fun () ->
      let traces = mret_traces b in
      {
        t4_name = b.profile.Proggen.name;
        row = Tea_pinsim.Overhead.measure ?pgo ?fuse ?fuel ~traces b.image;
      })
    benches

let render_table4 rows =
  (* The "Compiled" engine column goes beyond the paper's three reference
     configurations: same DFA, compiled dispatch over a
     flat-array image. Its host ns/block win is deliberately excluded
     from these simulated ratios. *)
  let header =
    [
      "Benchmark"; "Native"; "Without Pintool"; "Empty"; "No Global / Local";
      "Global / No Local"; "Global / Local"; "Compiled";
    ]
  in
  let open Tea_pinsim.Overhead in
  let body =
    List.map
      (fun r ->
        [
          r.t4_name; Stats.ratio r.row.native; Stats.ratio r.row.without_pintool;
          Stats.ratio r.row.empty; Stats.ratio r.row.no_global_local;
          Stats.ratio r.row.global_no_local; Stats.ratio r.row.global_local;
          Stats.ratio r.row.compiled;
        ])
      rows
  in
  let geo f = Stats.geomean (List.map (fun r -> f r.row) rows) in
  let geomeans =
    [
      "GeoMean"; "1.00";
      Stats.ratio (geo (fun r -> r.without_pintool));
      Stats.ratio (geo (fun r -> r.empty));
      Stats.ratio (geo (fun r -> r.no_global_local));
      Stats.ratio (geo (fun r -> r.global_no_local));
      Stats.ratio (geo (fun r -> r.global_local));
      Stats.ratio (geo (fun r -> r.compiled));
    ]
  in
  "Table 4: TEA Overhead for Various Configurations (slowdown vs native)\n"
  ^ Table.render ~header (body @ [ geomeans ])
