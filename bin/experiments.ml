(* Regenerate every table and figure of the paper's evaluation (and the
   extra studies), optionally writing EXPERIMENTS.md.

   With --resume DIR the run is crash-safe: every harness-routed cell
   persists its metrics in the campaign directory, in-flight cells leave
   periodic checkpoints, and rerunning with the same directory reuses
   finished cells and resumes interrupted ones.  With --timeout SEC a
   cell exceeding its budget degrades only its own reports; everything
   else still prints, and the run exits nonzero. *)

let run only scale paper_caches with_ablations out verbose jobs exec resume
    checkpoint_every timeout =
 Bisa_cli.Driver.guard ~component:"experiments" @@ fun () ->
  Bisa_experiments.Harness.verbose := verbose;
  Bisa_base.Pool.run ~workers:jobs @@ fun pool ->
  let campaign =
    Option.map
      (fun dir ->
        Bisa_experiments.Campaign.open_ ~dir ~checkpoint_every ?timeout_s:timeout
          ~scale ~paper_caches ())
      resume
  in
  let h =
    Bisa_experiments.Harness.create ?scale ~paper_caches ~pool ~exec ?campaign ()
  in
  (* Each report is generated independently so one timed-out cell spoils
     only the reports that need it. *)
  let report_thunks : (string * (unit -> Bisa_experiments.Figures.report)) list =
    [
      ("table1", fun () -> Bisa_experiments.Figures.table1 ());
      ("table2", fun () -> Bisa_experiments.Figures.table2 h);
      ("fig3", fun () -> Bisa_experiments.Figures.fig3 h);
      ("fig4", fun () -> Bisa_experiments.Figures.fig4 h);
      ("fig5", fun () -> Bisa_experiments.Figures.fig5 h);
      ("fig6", fun () -> Bisa_experiments.Figures.fig6 h);
      ("fig7", fun () -> Bisa_experiments.Figures.fig7 h);
      ("prediction_parity", fun () -> Bisa_experiments.Extras.prediction_parity h);
      ("future_scientific", fun () -> Bisa_experiments.Extras.scientific ~exec ~pool ());
      ("trace_cache", fun () -> Bisa_experiments.Extras.trace_cache_rivalry ~exec ~pool ());
      ("inlining", fun () -> Bisa_experiments.Extras.inlining_study ~exec ~pool ());
      ("predication", fun () -> Bisa_experiments.Extras.predication_study ~exec ~pool ());
    ]
  in
  let report_thunks =
    match only with
    | None -> report_thunks
    | Some id -> begin
      (* An unknown id must fail loudly, not print an empty report. *)
      match List.filter (fun (rid, _) -> rid = id) report_thunks with
      | [] ->
        Bisa_base.Diag.fail ~component:"experiments"
          "no experiment named %s (have: %s)" id
          (String.concat " " (List.map fst report_thunks))
      | picked -> picked
    end
  in
  let timeouts = ref [] in
  let reports =
    List.map
      (fun (id, thunk) ->
        try thunk ()
        with Bisa_experiments.Campaign.Timed_out { key; ops } ->
          timeouts := (id, key, ops) :: !timeouts;
          {
            Bisa_experiments.Figures.id;
            title = "TIMED OUT";
            rendered =
              Bisa_base.Diag.render
                (Bisa_experiments.Campaign.timed_out_diag ~key ~ops);
            summary =
              "Partial result: rerun with the same --resume directory (and a \
               larger --timeout) to continue from the last checkpoint.";
          })
      report_thunks
  in
  let buf = Buffer.create 65536 in
  List.iter
    (fun (r : Bisa_experiments.Figures.report) ->
      Buffer.add_string buf (Printf.sprintf "\n===== %s: %s =====\n" r.id r.title);
      Buffer.add_string buf r.rendered;
      Buffer.add_char buf '\n';
      Buffer.add_string buf r.summary;
      Buffer.add_char buf '\n')
    reports;
  if with_ablations then
    List.iter
      (fun (s : Bisa_experiments.Ablations.study) ->
        Buffer.add_string buf (Printf.sprintf "\n===== %s: %s =====\n" s.id s.title);
        Buffer.add_string buf s.rendered)
      (Bisa_experiments.Ablations.all ~exec ~pool ()
      @ [ Bisa_experiments.Profile_guided.study ~exec ~pool () ]);
  print_string (Buffer.contents buf);
  (match out with
  | Some path ->
    Bisa_base.Atomic_file.write_string path (Buffer.contents buf);
    Printf.printf "\nwrote %s\n" path
  | None -> ());
  match !timeouts with
  | [] -> `Ok ()
  | ts ->
    `Error
      ( false,
        Printf.sprintf
          "%d experiment(s) hit the per-cell --timeout (%s); surviving results \
           were printed above"
          (List.length ts)
          (String.concat ", " (List.rev_map (fun (id, _, _) -> id) ts)) )

let () =
  let open Cmdliner in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~doc:"Run a single experiment (table1, table2, fig3..fig7, ...).")
  in
  let paper_caches =
    Arg.(
      value & flag
      & info [ "paper-sizes" ]
          ~doc:"Use the paper's literal 16/32/64KB icaches instead of the scaled sweep.")
  in
  let with_ablations =
    Arg.(value & flag & info [ "ablations" ] ~doc:"Also run the ablation studies.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~doc:"Also write the report to this file.")
  in
  let verbose = Arg.(value & flag & info [ "verbose" ] ~doc:"Log each simulation run.") in
  let term =
    Term.(
      ret
        (const run $ only $ Bisa_cli.Args.scale $ paper_caches $ with_ablations $ out
       $ verbose $ Bisa_cli.Args.jobs $ Bisa_cli.Args.exec $ Bisa_cli.Args.resume
       $ Bisa_cli.Args.checkpoint_every $ Bisa_cli.Args.timeout))
  in
  let info = Cmd.info "experiments" ~doc:"Regenerate the paper's tables and figures" in
  exit (Cmd.eval (Cmd.v info term))
