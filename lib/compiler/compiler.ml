type compiled = {
  typed : Bisa_frontend.Typed.tprogram;
  ir : Bisa_ir.Ir.program;
  conv : Bisa_isa.Conv_prog.t;
  block : Bisa_isa.Block_prog.t;
  enlarged : Bisa_backend.Enlarge.t list;
}

exception Compile_error of Bisa_base.Diag.t

let fail ?loc msg = raise (Compile_error (Bisa_base.Diag.error ?loc ~component:"compiler" msg))

let located msg (pos : Bisa_frontend.Ast.pos) =
  fail ~loc:(Bisa_base.Diag.at_src ~line:pos.line ~col:pos.col) msg

let frontend ?spans ?(library_funcs = []) src =
  let time name f = Bisa_obs.Span.time spans name f in
  let typed =
    time "parse+typecheck" (fun () ->
        try Bisa_frontend.Typecheck.check (Bisa_frontend.Parser.parse src) with
        | Bisa_frontend.Lexer.Error (m, p) -> located ("lex error: " ^ m) p
        | Bisa_frontend.Parser.Error (m, p) -> located ("parse error: " ^ m) p
        | Bisa_frontend.Typecheck.Error (m, p) -> located ("type error: " ^ m) p)
  in
  let ir = time "lower" (fun () -> Bisa_frontend.Lower.lower ~library_funcs typed) in
  List.iter
    (fun f ->
      match Bisa_ir.Cfg.validate f with
      | Ok () -> ()
      | Error m -> fail ("internal: invalid IR: " ^ m))
    ir.funcs;
  (typed, ir)

let select_all ?spans (ir : Bisa_ir.Ir.program) ~opt ~inline ~ifconvert =
  Bisa_obs.Span.time spans "opt+isel" (fun () ->
      if inline then ignore (Bisa_opt.Inline.run ir : int);
      if ifconvert then ignore (Bisa_opt.Ifconvert.run_program ir : int);
      Bisa_opt.Pipeline.optimize opt ir;
      List.map Bisa_backend.Isel.select ir.funcs)

let compile ?spans ?(opt = Bisa_opt.Pipeline.O1)
    ?(enlarge = Bisa_backend.Enlarge.default_config) ?(inline = false)
    ?(ifconvert = false) ?(library_funcs = []) src =
  let time name f = Bisa_obs.Span.time spans name f in
  let typed, ir = frontend ?spans ~library_funcs src in
  let mfuncs = select_all ?spans ir ~opt ~inline ~ifconvert in
  let conv = time "link-conv" (fun () -> Bisa_backend.Linker.link_conventional ir.globals mfuncs) in
  let block, enlarged =
    time "link-block" (fun () ->
        Bisa_backend.Linker.link_block ~config:enlarge ir.globals mfuncs)
  in
  { typed; ir; conv; block; enlarged }

let to_machine ?(opt = Bisa_opt.Pipeline.O1) ?(inline = false) ?(ifconvert = false)
    ?(library_funcs = []) src =
  let typed, ir = frontend ~library_funcs src in
  let mfuncs = select_all ir ~opt ~inline ~ifconvert in
  (typed, ir, mfuncs)
