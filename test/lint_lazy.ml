(* Lint: no module under lib/ or bin/ binds a top-level lazy value.

   OCaml 5 raises [CamlinternalLazy.Undefined] when two domains force one
   lazy value at the same time, and a top-level lazy is shared by every
   domain a pool runs.  A value that must be built on first use across
   domains goes through [Pool.Once]; anything else is built eagerly or
   per call.  The check parses each file and flags every [lazy] (or
   [Lazy.from_fun]) that module initialisation evaluates, that is, one
   outside any function body.

   Usage: lint_lazy.exe FILE.ml...  Exits 1 naming each site. *)

let top_level_lazies (str : Parsetree.structure) =
  let found = ref [] in
  let expr self (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_lazy _ -> found := e.pexp_loc :: !found
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Ldot (Lident "Lazy", "from_fun"); _ }; _ }, _)
      ->
      found := e.pexp_loc :: !found
    | Pexp_fun _ | Pexp_function _ | Pexp_poly _ -> () (* evaluated per call *)
    | _ -> Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str;
  List.rev !found

let parse ~file src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  Parse.implementation lexbuf

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The lint checks itself first, so a parser or iterator change that
   blinds it fails here instead of passing every file. *)
let self_test () =
  let count src = List.length (top_level_lazies (parse ~file:"<self-test>" src)) in
  let cases =
    [
      ("let x = lazy 1", 1);
      ("let x =\n  let y = 2 in\n  (lazy y, 3)", 1);
      ("module M = struct let x = Lazy.from_fun (fun () -> 1) end", 1);
      ("let f () = lazy 1", 0);
      ("let g = function 0 -> lazy 0 | n -> lazy n", 0);
      ("let v = Lazy.from_val 1", 0);
    ]
  in
  List.iter
    (fun (src, want) ->
      if count src <> want then begin
        Printf.eprintf "lint_lazy: self-test: %d top-level lazies in %S, expected %d\n"
          (count src) src want;
        exit 2
      end)
    cases

let () =
  self_test ();
  let files = List.tl (Array.to_list Sys.argv) in
  let bad =
    List.concat_map
      (fun file -> top_level_lazies (parse ~file (read_file file)))
      files
  in
  List.iter
    (fun (loc : Location.t) ->
      Printf.printf
        "%s:%d: top-level lazy value; two domains forcing it at once raise \
         CamlinternalLazy.Undefined (build it eagerly, per call, or through \
         Pool.Once)\n"
        loc.loc_start.pos_fname loc.loc_start.pos_lnum)
    bad;
  if bad <> [] then exit 1;
  Printf.printf "lint_lazy: %d files, no top-level lazy\n" (List.length files)
