module Proto = Bisa_proto.Proto
module Engine = Bisa_serve.Engine

type sim = {
  input : string;
  isa : Proto.isa;
  functional : bool;
  exec : Bisa_sim.Compile.backend;
  cfg : Proto.sim_cfg;
  show_output : bool;
  scale : int option;
}

open Cmdliner

let input =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"INPUT"
        ~doc:"MiniC source file, built-in workload name, or .cbin/.bbin binary.")

let sim =
  let functional =
    Arg.(value & flag & info [ "functional" ] ~doc:"Functional execution only (no timing).")
  in
  let show_output =
    Arg.(value & flag & info [ "show-output" ] ~doc:"Print the program's output stream.")
  in
  let mk input isa functional exec cfg show_output scale =
    { input; isa; functional; exec; cfg; show_output; scale }
  in
  Term.(
    const mk $ input $ Args.isa $ functional $ Args.exec $ Args.sim_cfg $ show_output
    $ Args.scale)

let source ~component ?scale input : Proto.prog_src =
  if Filename.check_suffix input ".cbin" then Proto.Conv_bin (Bisa_base.Fs.read_file input)
  else if Filename.check_suffix input ".bbin" then
    Proto.Block_bin (Bisa_base.Fs.read_file input)
  else begin
    let src, libs = Driver.read_source ?scale ~component input in
    Proto.Source { src; libs }
  end

let simulation ~component (s : sim) =
  Proto.Simulate
    {
      src = source ~component ?scale:s.scale s.input;
      isa = s.isa;
      mode = (if s.functional then Proto.Functional else Proto.Timing);
      exec = s.exec;
      cfg = s.cfg;
      show_output = s.show_output;
    }

let verification ~component ?scale input = Proto.Verify { src = source ~component ?scale input }

let ok = function Proto.Err diags -> raise (Engine.Rejected diags) | reply -> reply

let print ~component ~input reply =
  match ok reply with
  | Proto.Sim { stdout; notes; _ } ->
    prerr_string notes;
    print_string stdout
  | Proto.Verdict { diags = [] } -> Printf.printf "%s: verify OK\n" input
  | Proto.Verdict { diags } -> raise (Engine.Rejected diags)
  | Proto.Cell_done { summary; _ } -> print_endline summary
  | _ -> Bisa_base.Diag.fail ~component "unexpected reply for %s" input
