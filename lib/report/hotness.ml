(* Hotness report over a dispatch-tier snapshot: overall tier mix, then
   the top-N states by blocks resolved with their
   per-tier split. Pure function of the snapshot (sorting breaks ties on
   state id), so deterministic runs render deterministically. *)

module Tierstat = Tea_core.Tierstat

let default_top = 10

let render ?(top = default_top) (s : Tierstat.snapshot) =
  let buf = Buffer.create 512 in
  let total = Tierstat.total s in
  Buffer.add_string buf "dispatch tiers\n";
  if total = 0 then Buffer.add_string buf "(no blocks resolved)\n"
  else begin
    let pct n = Stats.percent1 (float_of_int n /. float_of_int total) in
    let mix =
      String.concat "  "
        (List.init Tierstat.n_tiers (fun t ->
             Printf.sprintf "%s=%s" (Tierstat.tier_name t)
               (pct s.Tierstat.ts_totals.(t))))
    in
    Buffer.add_string buf
      (Printf.sprintf "blocks: %d  %s\n" total mix);
    let rows =
      List.map
        (fun (st, row) -> (st, Array.fold_left ( + ) 0 row, row))
        s.Tierstat.ts_states
      |> List.sort (fun (ia, ta, _) (ib, tb, _) ->
             let c = Int.compare tb ta in
             if c <> 0 then c else Int.compare ia ib)
      |> List.filteri (fun i _ -> i < top)
    in
    if rows <> [] then begin
      Buffer.add_char buf '\n';
      let body =
        List.map
          (fun (st, t, row) ->
            string_of_int st :: string_of_int t :: pct t
            :: List.init Tierstat.n_tiers (fun i -> string_of_int row.(i)))
          rows
      in
      let header =
        "state" :: "blocks" :: "share"
        :: List.init Tierstat.n_tiers Tierstat.tier_name
      in
      let align = Table.Right :: List.map (fun _ -> Table.Right) (List.tl header) in
      Buffer.add_string buf (Table.render ~align ~header body)
    end
  end;
  Buffer.contents buf
