(* The simulator driver: run a MiniC program (or built-in workload) on
   either core, functionally or through the timing model, optionally
   exporting pipeline events as a Chrome trace. *)

module Driver = Bisa_cli.Driver
module Args = Bisa_cli.Args
module Pipeline = Bisa_timing.Pipeline
module Proto = Bisa_proto.Proto
module Trace = Bisa_obs.Trace

(* Pre-compiled binaries (from `bisac --emit conv-bin/block-bin`) load
   directly; anything else compiles from source. *)
type loaded =
  | Lconv of Bisa_isa.Conv_prog.t
  | Lblock of Bisa_isa.Block_prog.t
  | Lsource of string * string list

let load ?scale input =
  if Filename.check_suffix input ".cbin" then
    Lconv (Bisa_isa.Encode.conv_of_bytes (Bisa_base.Fs.read_file input))
  else if Filename.check_suffix input ".bbin" then
    Lblock (Bisa_isa.Encode.block_of_bytes (Bisa_base.Fs.read_file input))
  else begin
    let src, libs = Driver.read_source ?scale ~component:"bisasim" input in
    Lsource (src, libs)
  end

let pick opt what =
  match opt with
  | Some p -> p
  | None ->
    Bisa_base.Diag.fail ~component:"bisasim"
      "this binary does not contain a %s executable" what

(* Print every verifier diagnostic, then fail through the guard with a
   one-line summary — the structured diags are the payload, the summary
   just sets the exit code. *)
let reject what diags =
  List.iter (fun d -> prerr_endline (Bisa_base.Diag.render d)) diags;
  Bisa_base.Diag.fail ~component:"bisasim" "verification rejected %s (%d diagnostic%s)"
    what (List.length diags)
    (if List.length diags = 1 then "" else "s")

let run input isa functional exec (sim_cfg : Proto.sim_cfg) show_output scale
    trace_out trace_sample trace_validate timeline verify_only no_verify =
 Driver.guard ~component:"bisasim" @@ fun () ->
  (match sim_cfg.out_cap with
  | Some n when n < 0 ->
    Bisa_base.Diag.fail ~component:"bisasim" "--out-cap must be non-negative (got %d)" n
  | _ -> ());
  let conv_prog, block_prog =
    match load ?scale input with
    | Lconv p -> (Some p, None)
    | Lblock p -> (None, Some p)
    | Lsource (src, library_funcs) ->
      let c = Bisa_compiler.Compiler.compile ~library_funcs src in
      (Some c.conv, Some c.block)
  in
  if verify_only then begin
    (* Verify every executable the input carries, not just --isa's. *)
    let diags =
      (match conv_prog with None -> [] | Some p -> Pipeline.Conv.verify p)
      @ (match block_prog with None -> [] | Some p -> Pipeline.Block.verify p)
    in
    match diags with
    | [] ->
      Printf.printf "%s: verify OK\n" input;
      `Ok ()
    | ds -> reject input ds
  end
  else begin
  (* The load/decode trust boundary: a program reaches an executor or the
     predecoder only as a verified program (or via the explicit escape
     hatch). *)
  if not no_verify then begin
    match isa with
    | Proto.Conv ->
      (match Pipeline.Conv.verify (pick conv_prog "conventional") with
      | [] -> ()
      | ds -> reject input ds)
    | Proto.Block ->
      (match Pipeline.Block.verify (pick block_prog "block-structured") with
      | [] -> ()
      | ds -> reject input ds)
  end;
  (* The flag bundle becomes the one canonical Config translation — the
     very same function the daemon applies to the same typed value. *)
  let cfg = Proto.to_config sim_cfg in
  let budget = sim_cfg.budget in
  let out_cap = sim_cfg.out_cap in
  if functional then begin
    (* The --exec backends drive the identical executor state, so output,
       counts and traps below read the same either way.  Verification was
       discharged (or explicitly waived) above, hence trusted compiles. *)
    let out, n, trap =
      match isa with
      | Proto.Conv ->
        let module E = Bisa_sim.Conv_exec in
        let t = E.create (pick conv_prog "conventional") in
        E.set_budget t budget;
        Option.iter (E.set_out_cap t) out_cap;
        (match exec with
        | Bisa_sim.Compile.Interp ->
          let rec go () = match E.step t with Some _ -> go () | None -> () in
          go ()
        | Bisa_sim.Compile.Compiled ->
          let module C = Bisa_sim.Compile.Conv in
          let ce = C.bind (C.compile_trusted t.prog) t in
          let rec go () = match C.step ce with Some _ -> go () | None -> () in
          go ());
        (E.output t, E.dyn_insns t, Option.map E.machine_trap_diag (E.machine_trap t))
      | Proto.Block ->
        let module E = Bisa_sim.Block_exec in
        let t = E.create (pick block_prog "block-structured") in
        E.set_budget t budget;
        Option.iter (E.set_out_cap t) out_cap;
        (match exec with
        | Bisa_sim.Compile.Interp ->
          let rec go () = match E.step t with Some _ -> go () | None -> () in
          go ()
        | Bisa_sim.Compile.Compiled ->
          let module C = Bisa_sim.Compile.Block in
          let ce = C.bind (C.compile_trusted t.prog) t in
          let rec go () = match C.step ce with Some _ -> go () | None -> () in
          go ());
        (E.output t, E.retired_ops t, Option.map E.machine_trap_diag (E.machine_trap t))
    in
    Option.iter (fun d -> prerr_endline (Bisa_base.Diag.render d)) trap;
    print_string
      (Proto.render_functional ~show_output
         ~out:(Bisa_sim.Output.to_string out)
         ~ops:n ~ret:out.ret);
    `Ok ()
  end
  else begin
    (* Both ISAs run through the one Pipeline.S contract; the ISA choice
       only decides which implementation [timing] gets.  Verification was
       discharged (or waived) above, so tables are built trusted. *)
    let recorder =
      if trace_out <> None || timeline then
        Some (Trace.recorder ~sample:trace_sample ())
      else None
    in
    let timing (type p) (module P : Pipeline.S with type prog = p) (prog : p) =
      let m, out =
        P.run_artifact ?probe:(Option.map Trace.probe recorder) ?out_cap cfg
          (P.prepare_trusted ~exec prog)
      in
      print_string
        (Proto.render_timing ~show_output
           ~out:(Bisa_sim.Output.to_string out)
           ~summary:(Bisa_timing.Metrics.summary ~name:P.descr m))
    in
    (match isa with
    | Proto.Conv -> timing (module Pipeline.Conv) (pick conv_prog "conventional")
    | Proto.Block ->
      timing (module Pipeline.Block) (pick block_prog "block-structured"));
    (match recorder with
    | None -> ()
    | Some r ->
      (match trace_out with
      | Some path ->
        Trace.write_chrome_json ~process_name:("bisasim " ^ input) r path;
        Printf.printf "wrote %s%s\n" path
          (if Trace.dropped r > 0 then
             Printf.sprintf " (%d events beyond the buffer cap dropped)" (Trace.dropped r)
           else "");
        if trace_validate then begin
          match Trace.validate (Bisa_base.Fs.read_file path) with
          | Ok st ->
            Printf.printf "trace OK: %d events (%d begin/%d end, %d instants, %d counter samples)\n"
              st.events st.begins st.ends st.instants st.counter_events
          | Error e ->
            Bisa_base.Diag.fail ~component:"bisasim" "trace validation failed: %s" e
        end
      | None -> ());
      if timeline then print_string (Trace.occupancy_timeline r));
    `Ok ()
  end
  end

let () =
  let open Cmdliner in
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"INPUT" ~doc:"MiniC source file, or a built-in workload name.")
  in
  let functional =
    Arg.(value & flag & info [ "functional" ] ~doc:"Functional execution only (no timing).")
  in
  let show_output =
    Arg.(value & flag & info [ "show-output" ] ~doc:"Print the program's output stream.")
  in
  let trace_validate =
    Arg.(
      value & flag
      & info [ "trace-validate" ]
          ~doc:
            "After writing $(b,--trace-out), re-read and validate it (field order, \
             monotonic timestamps, matched begin/end pairs); exits nonzero on any \
             violation.")
  in
  let timeline =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:"Print an ASCII window-occupancy timeline of the run.")
  in
  let verify_only =
    Arg.(
      value & flag
      & info [ "verify-only" ]
          ~doc:
            "Load (or compile) the input, run the static well-formedness verifier \
             on every executable it carries, print each diagnostic, and exit \
             nonzero on rejection — no simulation.")
  in
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:
            "Skip load-time verification and simulate the program as-is — the \
             escape hatch for fuzzing and for studying how the unverified engine \
             fails.  Malformed programs may then abort with engine exceptions \
             instead of structured diagnostics.")
  in
  let term =
    Term.(
      ret
        (const run $ input $ Args.isa $ functional $ Args.exec $ Args.sim_cfg
       $ show_output $ Args.scale $ Args.trace_out $ Args.trace_sample
       $ trace_validate $ timeline $ verify_only $ no_verify))
  in
  let info = Cmd.info "bisasim" ~doc:"Block-structured ISA processor simulator" in
  exit (Cmd.eval (Cmd.v info term))
