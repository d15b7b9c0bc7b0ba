(* The four workloads: what each runs and how much work one run does. Why
   each was chosen is in BENCHMARK.json and benchmark/README.md. *)

type kind = Offline_loopy | Offline_interleave | Serve_long | Serve_churn

type t = {
  name : string;
  kind : kind;
  programs : string list;
  sessions_per_s : float;
      (** serve workloads: a run sends [sessions_per_s * seconds]
          sessions, a fixed count, so memory, swap counts and failure
          shares compare across commits. Offline workloads replay rounds
          until [seconds] of wall time have gone by. *)
  setup_s : float;  (** expected set-up seconds, for the watchdog *)
}

let all =
  [
    {
      name = "offline-loopy";
      kind = Offline_loopy;
      programs = [ "171.swim"; "179.art"; "189.lucas" ];
      sessions_per_s = 0.0;
      setup_s = 7.0;
    };
    {
      name = "offline-interleave";
      kind = Offline_interleave;
      programs = [ "164.gzip"; "252.eon"; "253.perlbmk" ];
      sessions_per_s = 0.0;
      setup_s = 6.0;
    };
    {
      name = "serve-long";
      kind = Serve_long;
      programs = [ "181.mcf" ];
      sessions_per_s = 12.0;
      setup_s = 5.0;
    };
    {
      name = "serve-churn";
      kind = Serve_churn;
      programs = [ "254.gap" ];
      sessions_per_s = 1100.0;
      setup_s = 2.0;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let is_serve w = match w.kind with Serve_long | Serve_churn -> true | _ -> false

(* Enough sessions for a p90 with ten samples beyond it. *)
let sessions w ~seconds =
  max (Stats.samples_for ~pct:90) (int_of_float (w.sessions_per_s *. float_of_int seconds))

let expected_s w ~seconds =
  w.setup_s
  +.
  if is_serve w then float_of_int (sessions w ~seconds) /. w.sessions_per_s
  else float_of_int seconds
