let read_source ?scale ~component path_or_name =
  if Sys.file_exists path_or_name then (Bisa_base.Fs.read_file path_or_name, [])
  else begin
    match Bisa_workloads.Workloads.find path_or_name with
    | w -> (Bisa_workloads.Workloads.source ?scale w, w.library_funcs)
    | exception Invalid_argument _ ->
      Bisa_base.Diag.fail ~component
        "no such file, and not a workload name: %s (workloads: %s)" path_or_name
        (String.concat " " Bisa_workloads.Workloads.names)
  end

let guard ~component f =
  (* Every diagnostic but the last goes to stderr; the last is the
     failure line cmdliner prints. *)
  let rec report = function
    | [] -> report [ Bisa_base.Diag.error ~component "failed without a diagnostic" ]
    | [ d ] -> `Error (false, Bisa_base.Diag.render d)
    | d :: rest ->
      prerr_endline (Bisa_base.Diag.render d);
      report rest
  in
  try f ()
  with e -> (
    let bt = Printexc.get_raw_backtrace () in
    match Bisa_serve.Engine.diags_of_exn ~component e with
    | Some ds -> report ds
    | None -> Printexc.raise_with_backtrace e bt)
