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

(* The single definition lives with the protocol, so the daemon and the
   one-shot CLIs cannot interpret --icache-kb differently. *)
let cache_of_kb = Bisa_proto.Proto.cache_of_kb

let guard ~component f =
  let render d = `Error (false, Bisa_base.Diag.render d) in
  try f () with
  | Bisa_compiler.Compiler.Compile_error d -> render d
  | Bisa_isa.Encode.Malformed d -> render d
  | Bisa_base.Diag.Fail d -> render d
  | Bisa_sim.Conv_exec.Runaway n -> render (Bisa_sim.Conv_exec.runaway_diag n)
  | Bisa_sim.Block_exec.Runaway n -> render (Bisa_sim.Block_exec.runaway_diag n)
  | Bisa_sim.Block_exec.Illegal_fetch { required; requested } ->
    render (Bisa_sim.Block_exec.illegal_fetch_diag ~required ~requested)
  | Bisa_sim.Memory.Unaligned a ->
    render
      (Bisa_base.Diag.error ~component
         (Printf.sprintf "unaligned memory access at 0x%x" a))
  | Sys_error msg -> render (Bisa_base.Diag.error ~component msg)
