(* The repository benchmark.

     tea_bench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                   [--trace-dir DIR] [--out FILE]
     tea_bench compare A.jsonl B.jsonl

   `run` prints `workload metric value unit n=samples` lines and, last, one
   JSON verdict; it exits 1 if any answer was wrong. Run it from the root of
   the repository (see benchmark/README.md). *)

open Tea_benchmark

let ( // ) = Filename.concat

let usage =
  "usage: tea_bench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
   [--trace-dir DIR] [--out FILE]\n\
  \       tea_bench compare A.jsonl B.jsonl"

let die code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("tea_bench: " ^ msg);
      exit code)
    fmt

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let run argv =
  let workload = ref None and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let trace_dir = ref ("benchmark" // "out") and out = ref None in
  let daemon = "_build" // "default" // "bin" // "tea_tool.exe" in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME one workload (default: all)");
      ("--seed", Arg.Set_int seed, "N input seed (default 1; 2 is held out for claims)");
      ("--seconds", Arg.Set_int seconds, "S run length (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 traced run: per-layer metrics and a span file");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where span files go (default benchmark/out)");
      ("--out", Arg.String (fun s -> out := Some s), "FILE append the run's record (JSON lines)");
    ]
  in
  (try Arg.parse_argv ~current:(ref 0) argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad m | Arg.Help m -> die 2 "%s" m);
  if !seconds < 1 then die 2 "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die 2 "--trace takes 0 or 1";
  let workloads =
    match !workload with
    | None -> Workload.all
    | Some n -> (
        match Workload.find n with Some w -> [ w ] | None -> die 2 "unknown workload %S" n)
  in
  if List.exists Workload.is_serve workloads && not (Sys.file_exists daemon) then
    die 2 "%s not found: build it first (dune build bin/tea_tool.exe)" daemon;
  let tmp = "benchmark" // Printf.sprintf "tmp-%d" (Unix.getpid ()) in
  mkdir_p tmp;
  if !trace = 1 then mkdir_p !trace_dir;
  at_exit (fun () ->
      Daemon.stop_all ();
      rm_rf tmp);
  let on_signal code = Sys.Signal_handle (fun _ -> exit code) in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigint (on_signal 130);
  Sys.set_signal Sys.sigterm (on_signal 143);
  let ctx =
    {
      Measure.seed = !seed;
      seconds = !seconds;
      traced = !trace = 1;
      tmp;
      trace_dir = !trace_dir;
      daemon;
    }
  in
  let reports =
    List.map
      (fun w ->
        (* watchdog: a workload may take 5x its expected time, never more
           than the 180 s a run is allowed *)
        let limit = min 170 (int_of_float (ceil (5.0 *. Workload.expected_s w ~seconds:!seconds))) in
        Sys.set_signal Sys.sigalrm
          (Sys.Signal_handle
             (fun _ ->
               prerr_endline
                 (Printf.sprintf "tea_bench: watchdog: %s exceeded %d s" w.Workload.name limit);
               exit 3));
        ignore (Unix.alarm limit);
        let o =
          try
            match w.Workload.kind with
            | Workload.Offline_loopy | Workload.Offline_interleave -> Measure.offline ctx w
            | Workload.Serve_long | Workload.Serve_churn -> Measure.serve ctx w
          with e -> die 1 "%s: %s" w.Workload.name (Printexc.to_string e)
        in
        ignore (Unix.alarm 0);
        let t = o.Measure.tally in
        let scale = Clock.scale o.Measure.clock in
        let scaled = List.map (Clock.scale_metric scale) in
        let r =
          {
            Report.workload = w.Workload.name;
            seed = !seed;
            seconds = !seconds;
            traced = ctx.Measure.traced;
            correct = not t.Measure.wrong;
            attempted = t.Measure.attempted;
            failed = t.Measure.failed;
            e2e = scaled o.Measure.e2e;
            layers = scaled o.Measure.layers;
            extra =
              scaled o.Measure.extra
              @ [
                  Report.metric ~unit_:"ms" "clock.kernel_ms" (1e3 *. Clock.run_median o.Measure.clock);
                  Report.metric ~unit_:"ratio" "clock.scale" scale;
                ];
            errors = List.rev t.Measure.errors;
          }
        in
        Report.print_lines r;
        Option.iter (fun path -> Report.append path r) !out;
        r)
      workloads
  in
  print_endline
    (Json.to_string
       (match reports with [ r ] -> Report.verdict r | rs -> Report.combined rs));
  if List.exists (fun r -> not r.Report.correct) reports then exit 1

let compare = function
  | [ a; b ] ->
      let rows = Compare.rows (Compare.load_spec "BENCHMARK.json") (Report.load a) (Report.load b) in
      print_string (Compare.render rows);
      let bad = Compare.regressions rows in
      if bad <> [] then begin
        Printf.printf "%d regression(s) beyond their bounds\n" (List.length bad);
        exit 1
      end
  | _ -> die 2 "compare takes two run files\n%s" usage

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run (Array.of_list ("run" :: rest))
  | _ :: "compare" :: rest -> compare rest
  | _ -> die 2 "%s" usage
