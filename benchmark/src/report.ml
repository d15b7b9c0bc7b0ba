(* One run's results: printed as `workload metric value unit` lines, as the
   final one-line JSON verdict, and as a record appended to --out files
   that `compare` reads back. *)

type metric = { name : string; value : float; unit_ : string; samples : int }

type t = {
  workload : string;
  seed : int;
  seconds : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;  (** measured with tracing off *)
  layers : metric list;  (** the catalog's per-layer metrics (traced runs) *)
  extra : metric list;  (** workload-specific numbers outside the catalog *)
  errors : string list;
}

(* The unit comes from the catalog; metrics outside it name their own. *)
let metric ?(samples = 1) ?unit_ name value =
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "Report.metric: %s is not finite" name);
  let unit_ =
    match (unit_, Catalog.find name) with
    | Some u, _ -> u
    | None, Some m -> m.Catalog.unit_
    | None, None -> invalid_arg ("Report.metric: no unit for " ^ name)
  in
  { name; value; unit_; samples }

let print_lines r =
  let line m =
    Printf.printf "%s %s %s %s n=%d\n" r.workload m.name
      (Json.num_to_string m.value) m.unit_ m.samples
  in
  List.iter line r.e2e;
  List.iter line r.layers;
  List.iter line r.extra;
  List.iter (fun e -> Printf.printf "%s error %s\n" r.workload e) r.errors

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m ->
         (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
       ms)

(* The last stdout line of a run: its end-to-end metrics, or with --trace 1
   its per-layer metrics. *)
let verdict r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", metrics_json (if r.traced then r.layers else r.e2e));
    ]

(* Several workloads in one run: one verdict, metrics keyed workload/name. *)
let combined rs =
  let prefix r ms =
    List.map (fun m -> { m with name = r.workload ^ "/" ^ m.name }) ms
  in
  Json.Obj
    [
      ("correct", Json.Bool (List.for_all (fun r -> r.correct) rs));
      ("attempted", Json.Num (float_of_int (List.fold_left (fun a r -> a + r.attempted) 0 rs)));
      ("failed", Json.Num (float_of_int (List.fold_left (fun a r -> a + r.failed) 0 rs)));
      ( "metrics",
        metrics_json
          (List.concat_map (fun r -> prefix r (if r.traced then r.layers else r.e2e)) rs) );
    ]

let metric_json m =
  Json.Obj
    [
      ("name", Json.Str m.name);
      ("value", Json.Num m.value);
      ("unit", Json.Str m.unit_);
      ("samples", Json.Num (float_of_int m.samples));
    ]

let to_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed));
      ("seconds", Json.Num (float_of_int r.seconds));
      ("traced", Json.Bool r.traced);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("e2e", Json.Arr (List.map metric_json r.e2e));
      ("layers", Json.Arr (List.map metric_json r.layers));
      ("extra", Json.Arr (List.map metric_json r.extra));
      ("errors", Json.Arr (List.map (fun e -> Json.Str e) r.errors));
    ]

let metric_of_json j =
  {
    name = Json.to_str (Json.member "name" j);
    value = Json.to_num (Json.member "value" j);
    unit_ = Json.to_str (Json.member "unit" j);
    samples = int_of_float (Json.to_num (Json.member "samples" j));
  }

let of_json j =
  let ms k = List.map metric_of_json (Json.to_list (Json.member k j)) in
  let int k = int_of_float (Json.to_num (Json.member k j)) in
  {
    workload = Json.to_str (Json.member "workload" j);
    seed = int "seed";
    seconds = int "seconds";
    traced = Json.to_bool (Json.member "traced" j);
    correct = Json.to_bool (Json.member "correct" j);
    attempted = int "attempted";
    failed = int "failed";
    e2e = ms "e2e";
    layers = ms "layers";
    extra = ms "extra";
    errors = List.map Json.to_str (Json.to_list (Json.member "errors" j));
  }

(* --out files hold one record per line, so repeated runs append. *)
let append path r =
  let oc = open_out_gen [ Open_append; Open_creat; Open_text ] 0o644 path in
  output_string oc (Json.to_string (to_json r));
  output_char oc '\n';
  close_out oc

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | "" -> go acc
    | line -> go (of_json (Json.parse line) :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []
