(* The real `tea_tool serve` binary, driven from outside: spawned, waited
   for until its banner, scraped, measured through /proc, and always
   reaped — on success, on failure, and from the watchdog. *)

type t = { pid : int; out : in_channel; addr : Tea_serve.Frame.addr }

let live : t list ref = ref []

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* SIGTERM, then SIGKILL if the daemon has not exited within a second. *)
let stop t =
  if List.memq t !live then begin
    live := List.filter (fun d -> d != t) !live;
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 1.0 in
    let rec poll () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.01;
          poll ()
      | 0, _ ->
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap t.pid
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    poll ();
    close_in_noerr t.out
  end

let stop_all () = List.iter stop !live

(* Spawn the daemon with [args] listening on the Unix socket [sock]; return
   it once its `serving ... on` banner is out, with the seconds that took.
   TMPDIR points the daemon's own scratch files at [tmp]. *)
let spawn ~exe ~tmp ~sock args =
  let argv = Array.of_list ((exe :: "serve" :: args) @ [ "--listen"; "unix:" ^ sock ]) in
  let env =
    Array.append [| "TMPDIR=" ^ tmp |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"TMPDIR=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process_env exe argv env Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let t = { pid; out = Unix.in_channel_of_descr rd; addr = Tea_serve.Frame.Unix_sock sock } in
  live := t :: !live;
  match input_line t.out with
  | line when String.starts_with ~prefix:"serving " line ->
      (t, Unix.gettimeofday () -. t0)
  | line ->
      stop t;
      failwith ("daemon printed " ^ String.escaped line ^ " instead of its banner")
  | exception End_of_file ->
      stop t;
      failwith "daemon exited before its banner"

(* Peak resident set of a process so far, from /proc/<pid>/status. *)
let vmhwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> failwith "no VmHWM line"
  in
  find ()

let peak_rss_mb t = vmhwm_mb t.pid

(* The value of label [key] in a series like `x{name="a",q="0.5"}`. *)
let label series key =
  let k = key ^ "=\"" in
  let lk = String.length k and n = String.length series in
  let rec search i =
    if i + lk > n then None
    else if String.sub series i lk = k then
      let start = i + lk in
      Some (String.sub series start (String.index_from series start '"' - start))
    else search (i + 1)
  in
  search 0

(* A scraped exposition as (series, value) pairs: `tea_counter{name="x"}`
   becomes "x", `tea_histogram_quantile{name="x",q="0.5"}` becomes "x@0.5",
   a histogram's count "x@count", a tier total "tier.<name>", and a
   label-free gauge keeps its name. *)
let parse_scrape text =
  List.filter_map
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some sp when line.[0] <> '#' -> (
          let series = String.sub line 0 sp in
          let family =
            match String.index_opt series '{' with
            | Some i -> String.sub series 0 i
            | None -> series
          in
          match float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)) with
          | None -> None
          | Some v -> (
              match (family, label series "name", label series "q", label series "tier") with
              | "tea_counter", Some n, _, _ -> Some (n, v)
              | "tea_histogram_quantile", Some n, Some q, _ -> Some (n ^ "@" ^ q, v)
              | "tea_histogram_count", Some n, _, _ -> Some (n ^ "@count", v)
              | "tea_dispatch_tier_total", _, _, Some t -> Some ("tier." ^ t, v)
              | f, None, None, None when f = series -> Some (series, v)
              | _ -> None))
      | _ -> None)
    (String.split_on_char '\n' text)

let series scraped name = Option.value ~default:0.0 (List.assoc_opt name scraped)
