exception Error of string * Ast.pos

(* The token stream as a list: [cur] is its head and [rest] the tail.
   The lexer ends every stream with [EOF] and the parser never advances
   past it, so [cur] is always a token.  (Copying the list into an array
   would force a minor collection per parse: [Array.of_list] of more than
   256 words whose first element is young.) *)
type state = { mutable cur : Lexer.t; mutable rest : Lexer.t list }

let peek st = st.cur.Lexer.tok
let pos st = st.cur.Lexer.pos

let advance st =
  match st.rest with
  | t :: rest ->
    st.cur <- t;
    st.rest <- rest
  | [] -> ()

let error st msg =
  raise (Error (Printf.sprintf "%s (found %s)" msg (Lexer.token_to_string (peek st)), pos st))

let eat_punct st p =
  match peek st with
  | Lexer.PUNCT q when q = p -> advance st
  | _ -> error st (Printf.sprintf "expected '%s'" p)

let eat_kw st k =
  match peek st with
  | Lexer.KW q when q = k -> advance st
  | _ -> error st (Printf.sprintf "expected '%s'" k)

let try_punct st p =
  match peek st with
  | Lexer.PUNCT q when q = p ->
    advance st;
    true
  | _ -> false

let ident st =
  match peek st with
  | Lexer.IDENT s ->
    advance st;
    s
  | _ -> error st "expected identifier"

let int_lit st =
  match peek st with
  | Lexer.INT_LIT v ->
    advance st;
    v
  | Lexer.PUNCT "-" -> begin
    advance st;
    match peek st with
    | Lexer.INT_LIT v ->
      advance st;
      -v
    | _ -> error st "expected integer literal"
  end
  | _ -> error st "expected integer literal"

let base_ty st =
  match peek st with
  | Lexer.KW "int" ->
    advance st;
    Ast.Tint
  | Lexer.KW "float" ->
    advance st;
    Ast.Tflt
  | Lexer.KW "void" ->
    advance st;
    Ast.Tvoid
  | _ -> error st "expected type"

(* Expressions: precedence climbing.  Each binary operator carries its
   level, 0 binding loosest; every level is left-associative. *)
let binop_of_punct = function
  | "||" -> Some (Ast.Lor, 0)
  | "&&" -> Some (Ast.Land, 1)
  | "|" -> Some (Ast.Bor, 2)
  | "^" -> Some (Ast.Bxor, 3)
  | "&" -> Some (Ast.Band, 4)
  | "==" -> Some (Ast.Eq, 5)
  | "!=" -> Some (Ast.Ne, 5)
  | "<" -> Some (Ast.Lt, 6)
  | "<=" -> Some (Ast.Le, 6)
  | ">" -> Some (Ast.Gt, 6)
  | ">=" -> Some (Ast.Ge, 6)
  | "<<" -> Some (Ast.Shl, 7)
  | ">>" -> Some (Ast.Shr, 7)
  | "+" -> Some (Ast.Add, 8)
  | "-" -> Some (Ast.Sub, 8)
  | "*" -> Some (Ast.Mul, 9)
  | "/" -> Some (Ast.Div, 9)
  | "%" -> Some (Ast.Rem, 9)
  | _ -> None

let rec expr st = binary st 0

(* An operand followed by every operator of level [min] or tighter. *)
and binary st min =
  let lhs = ref (unary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Lexer.PUNCT p -> begin
      match binop_of_punct p with
      | Some (op, level) when level >= min ->
        let p0 = pos st in
        advance st;
        let rhs = binary st (level + 1) in
        lhs := { Ast.e = Ast.Binary (op, !lhs, rhs); epos = p0 }
      | _ -> continue := false
    end
    | _ -> continue := false
  done;
  !lhs

and unary st =
  let p0 = pos st in
  match peek st with
  | Lexer.PUNCT "-" ->
    advance st;
    { Ast.e = Ast.Unary (Ast.Neg, unary st); epos = p0 }
  | Lexer.PUNCT "!" ->
    advance st;
    { Ast.e = Ast.Unary (Ast.Lognot, unary st); epos = p0 }
  | Lexer.PUNCT "~" ->
    advance st;
    { Ast.e = Ast.Unary (Ast.Bitnot, unary st); epos = p0 }
  | _ -> primary st

and primary st =
  let p0 = pos st in
  match peek st with
  | Lexer.INT_LIT v ->
    advance st;
    { Ast.e = Ast.Int_lit v; epos = p0 }
  | Lexer.FLT_LIT v ->
    advance st;
    { Ast.e = Ast.Flt_lit v; epos = p0 }
  | Lexer.PUNCT "(" ->
    advance st;
    let e = expr st in
    eat_punct st ")";
    e
  | Lexer.IDENT name -> begin
    advance st;
    match peek st with
    | Lexer.PUNCT "(" ->
      advance st;
      let args = call_args st in
      { Ast.e = Ast.Call (name, args); epos = p0 }
    | Lexer.PUNCT "[" ->
      advance st;
      let idx = expr st in
      eat_punct st "]";
      { Ast.e = Ast.Index (name, idx); epos = p0 }
    | _ -> { Ast.e = Ast.Var name; epos = p0 }
  end
  | _ -> error st "expected expression"

and call_args st =
  if try_punct st ")" then []
  else begin
    let rec loop acc =
      let a = expr st in
      if try_punct st "," then loop (a :: acc)
      else begin
        eat_punct st ")";
        List.rev (a :: acc)
      end
    in
    loop []
  end

(* Statements ------------------------------------------------------------ *)

let lvalue_of_expr _st (e : Ast.expr) =
  match e.e with
  | Ast.Var name -> Ast.Lvar name
  | Ast.Index (name, idx) -> Ast.Lindex (name, idx)
  | _ -> raise (Error ("invalid assignment target", e.epos))

let rec stmt st =
  let p0 = pos st in
  let mk s = { Ast.s; spos = p0 } in
  match peek st with
  | Lexer.PUNCT "{" -> mk (Ast.Block (block st))
  | Lexer.KW "if" ->
    advance st;
    eat_punct st "(";
    let cond = expr st in
    eat_punct st ")";
    let then_ = stmt_as_list st in
    let else_ =
      match peek st with
      | Lexer.KW "else" ->
        advance st;
        stmt_as_list st
      | _ -> []
    in
    mk (Ast.If (cond, then_, else_))
  | Lexer.KW "while" ->
    advance st;
    eat_punct st "(";
    let cond = expr st in
    eat_punct st ")";
    mk (Ast.While (cond, stmt_as_list st))
  | Lexer.KW "do" ->
    advance st;
    let body = stmt_as_list st in
    eat_kw st "while";
    eat_punct st "(";
    let cond = expr st in
    eat_punct st ")";
    eat_punct st ";";
    mk (Ast.Do_while (body, cond))
  | Lexer.KW "for" ->
    advance st;
    eat_punct st "(";
    let init =
      if try_punct st ";" then None
      else begin
        let s = simple_stmt st in
        eat_punct st ";";
        Some s
      end
    in
    let cond = if try_punct st ";" then None
      else begin
        let e = expr st in
        eat_punct st ";";
        Some e
      end
    in
    let step =
      match peek st with
      | Lexer.PUNCT ")" -> None
      | _ -> Some (simple_stmt st)
    in
    eat_punct st ")";
    mk (Ast.For (init, cond, step, stmt_as_list st))
  | Lexer.KW "switch" ->
    advance st;
    eat_punct st "(";
    let scrutinee = expr st in
    eat_punct st ")";
    eat_punct st "{";
    let cases = ref [] and default = ref [] in
    let rec cases_loop () =
      match peek st with
      | Lexer.KW "case" ->
        advance st;
        let v = int_lit st in
        eat_punct st ":";
        cases := (v, case_body st) :: !cases;
        cases_loop ()
      | Lexer.KW "default" ->
        advance st;
        eat_punct st ":";
        default := case_body st;
        cases_loop ()
      | Lexer.PUNCT "}" -> advance st
      | _ -> error st "expected 'case', 'default' or '}'"
    in
    cases_loop ();
    mk (Ast.Switch (scrutinee, List.rev !cases, !default))
  | Lexer.KW "return" ->
    advance st;
    let v = if try_punct st ";" then None
      else begin
        let e = expr st in
        eat_punct st ";";
        Some e
      end
    in
    mk (Ast.Return v)
  | Lexer.KW "break" ->
    advance st;
    eat_punct st ";";
    mk Ast.Break
  | Lexer.KW "continue" ->
    advance st;
    eat_punct st ";";
    mk Ast.Continue
  | Lexer.KW ("int" | "float") ->
    let s = simple_stmt st in
    eat_punct st ";";
    s
  | _ ->
    let s = simple_stmt st in
    eat_punct st ";";
    s

(* A statement without its trailing ';': declaration, assignment or bare
   expression.  Used directly by 'for' headers. *)
and simple_stmt st =
  let p0 = pos st in
  let mk s = { Ast.s; spos = p0 } in
  match peek st with
  | Lexer.KW ("int" | "float") ->
    let ty = base_ty st in
    let name = ident st in
    let init = if try_punct st "=" then Some (expr st) else None in
    mk (Ast.Decl (ty, name, init))
  | _ ->
    let e = expr st in
    if try_punct st "=" then mk (Ast.Assign (lvalue_of_expr st e, expr st))
    else mk (Ast.Expr_stmt e)

and stmt_as_list st =
  match peek st with
  | Lexer.PUNCT "{" -> block st
  | _ -> [ stmt st ]

and block st =
  eat_punct st "{";
  let rec loop acc =
    match peek st with
    | Lexer.PUNCT "}" ->
      advance st;
      List.rev acc
    | Lexer.EOF -> error st "unterminated block"
    | _ -> loop (stmt st :: acc)
  in
  loop []

and case_body st =
  (* Statements until the next 'case' / 'default' / '}'. *)
  let rec loop acc =
    match peek st with
    | Lexer.KW "case" | Lexer.KW "default" | Lexer.PUNCT "}" -> List.rev acc
    | _ -> loop (stmt st :: acc)
  in
  loop []

(* Top level -------------------------------------------------------------- *)

let decl st =
  let p0 = pos st in
  let ty = base_ty st in
  let name = ident st in
  match peek st with
  | Lexer.PUNCT "(" ->
    advance st;
    let params =
      if try_punct st ")" then []
      else begin
        let rec loop acc =
          let pty = base_ty st in
          let pname = ident st in
          if try_punct st "," then loop ((pty, pname) :: acc)
          else begin
            eat_punct st ")";
            List.rev ((pty, pname) :: acc)
          end
        in
        loop []
      end
    in
    let body = block st in
    Ast.Dfunc { f_ty = ty; f_name = name; f_params = params; f_body = body; f_pos = p0 }
  | Lexer.PUNCT "[" ->
    advance st;
    let size = int_lit st in
    eat_punct st "]";
    eat_punct st ";";
    Ast.Dglobal { g_ty = ty; g_name = name; g_size = Some size; g_init = None }
  | _ ->
    let init =
      if try_punct st "=" then begin
        match peek st with
        | Lexer.INT_LIT v ->
          advance st;
          Some (float_of_int v)
        | Lexer.FLT_LIT v ->
          advance st;
          Some v
        | Lexer.PUNCT "-" -> begin
          advance st;
          match peek st with
          | Lexer.INT_LIT v ->
            advance st;
            Some (float_of_int (-v))
          | Lexer.FLT_LIT v ->
            advance st;
            Some (-.v)
          | _ -> error st "expected literal initializer"
        end
        | _ -> error st "expected literal initializer"
      end
      else None
    in
    eat_punct st ";";
    Ast.Dglobal { g_ty = ty; g_name = name; g_size = None; g_init = init }

let start src =
  match Lexer.tokenize src with
  | cur :: rest -> { cur; rest }
  | [] -> assert false (* the lexer always ends with EOF *)

let parse src =
  let st = start src in
  let rec loop acc =
    match peek st with
    | Lexer.EOF -> List.rev acc
    | _ -> loop (decl st :: acc)
  in
  loop []
