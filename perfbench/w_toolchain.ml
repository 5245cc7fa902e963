(* toolchain: seeded MiniC programs from Bisa_check.Gen, each compiled
   for both ISAs, prepared (verify and predecode) and run functionally on
   both, with both outputs compared against the reference interpreter.
   This is the bisac, daemon-Source and fuzz-campaign path: the frontend,
   optimizer and backend do most of the work and no timing core runs, so
   it is the workload that bypasses timing-core changes.  Generating the
   sources is the set-up; the reference outputs are computed before the
   clock starts and are not part of any timed number. *)

module Gen = Bisa_check.Gen
module Rng = Bisa_base.Rng
module Compiler = Bisa_compiler.Compiler
module Interp = Bisa_frontend.Interp
module Pipeline = Bisa_timing.Pipeline
module Output = Bisa_sim.Output

let programs (profile : Cli.profile) = match profile with Cli.Full -> 1000 | Cli.Smoke -> 100

(* Program i depends only on (seed, i). *)
let sources ~seed n = Array.init n (fun i -> Gen.render (Gen.generate (Rng.derive seed i)))

let reference src =
  let typed, _ = Compiler.frontend src in
  let r = Interp.run typed in
  {
    Output.ret = r.ret;
    items = List.map (function Interp.Oint i -> Output.Oint i | Interp.Oflt f -> Output.Oflt f) r.outputs;
  }

let pass m tr ?phases srcs refs =
  let exec_ops = ref 0 and exec_secs = ref 0. in
  let exec f =
    Tracer.span tr ~layer:"exec" "exec" (fun () ->
        let t0 = Unix.gettimeofday () in
        let out, n = f () in
        exec_secs := !exec_secs +. (Unix.gettimeofday () -. t0);
        exec_ops := !exec_ops + n;
        out)
  in
  Array.iteri
    (fun i src ->
      Tracer.span tr ~req:i ~layer:"bench" "program" (fun () ->
          let oc, ob =
            Measure.segment m ~op:true (string_of_int i) (fun () ->
                let c = Probe.compile ?tr ?phases ~library_funcs:[] src in
                let conv, block =
                  Tracer.span tr ~layer:"prepare" "prepare" (fun () ->
                      (Pipeline.Conv.prepare c.conv, Pipeline.Block.prepare c.block))
                in
                (exec (fun () -> Probe.exec_conv conv), exec (fun () -> Probe.exec_block block)))
          in
          Tracer.span tr ~layer:"check" "check" (fun () ->
              Measure.check m
                (Output.equal refs.(i) oc && Output.equal refs.(i) ob)
                (Printf.sprintf "program %d: an ISA's output differs from the interpreter's" i))))
    srcs;
  (!exec_ops, !exec_secs)

let run m =
  let cli = Measure.cli m in
  let n = programs cli.profile in
  let srcs = ref [||] in
  for _ = 1 to 5 do
    srcs := Measure.setup m (fun () -> sources ~seed:cli.seed n)
  done;
  let refs = Array.map reference !srcs in
  let phases = Hashtbl.create 8 in
  while Measure.more m do
    Measure.pass m (fun tr ->
        let phases = Option.map (fun _ -> phases) tr in
        let ops, secs = pass m tr ?phases !srcs refs in
        if tr <> None then Measure.set m "exec.mops_per_s" (float_of_int ops /. secs /. 1e6))
  done;
  if cli.trace then begin
    Probe.compile_shares m phases
      ~src_bytes:(Array.fold_left (fun acc s -> acc + String.length s) 0 !srcs);
    Probe.prepare_split m
      (List.map
         (fun src -> Compiler.compile src)
         (Array.to_list (Array.sub !srcs 0 (min 200 n))))
  end
