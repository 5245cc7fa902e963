(* Tests for the MiniC front end: lexer, parser, type checker, and the
   reference interpreter's semantics. *)

open Bisa_frontend

let run_src ?(fuel = 10_000_000) src =
  let tp = Typecheck.check (Parser.parse src) in
  Interp.run ~fuel tp

let check_ret src expected =
  Alcotest.(check int) "return value" expected (run_src src).ret

let check_outputs src expected =
  let r = run_src src in
  let ints =
    List.filter_map (function Interp.Oint v -> Some v | Interp.Oflt _ -> None) r.outputs
  in
  Alcotest.(check (list int)) "outputs" expected ints

let rejects src fragment =
  match Typecheck.check (Parser.parse src) with
  | _ -> Alcotest.failf "expected rejection mentioning %S" fragment
  | exception Typecheck.Error (msg, _) ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S mentions %S" msg fragment)
      true
      (Astring_free.contains_substring msg fragment)
  | exception Parser.Error (msg, _) ->
    Alcotest.(check bool)
      (Printf.sprintf "parse error %S mentions %S" msg fragment)
      true
      (Astring_free.contains_substring msg fragment)

(* --- Lexer --------------------------------------------------------------- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "int x = 12; // comment\nfloat y = 1.5e2; x <= y" in
  let kinds = List.map (fun (t : Lexer.t) -> Lexer.token_to_string t.tok) toks in
  Alcotest.(check (list string)) "tokens"
    [ "int"; "x"; "="; "12"; ";"; "float"; "y"; "="; "150."; ";"; "x"; "<="; "y"; "<eof>" ]
    kinds

let test_lexer_block_comment () =
  let toks = Lexer.tokenize "a /* multi\nline */ b" in
  Alcotest.(check int) "two idents + eof" 3 (List.length toks)

let test_lexer_errors () =
  Alcotest.check_raises "bad char"
    (Lexer.Error ("unexpected character '@'", { Ast.line = 1; col = 1 }))
    (fun () -> ignore (Lexer.tokenize "@"));
  (match Lexer.tokenize "/* open" with
  | _ -> Alcotest.fail "expected unterminated-comment error"
  | exception Lexer.Error (m, _) ->
    Alcotest.(check string) "msg" "unterminated comment" m)

(* A malformed float exponent is a located source error, not an escaped
   [float_of_string] failure. *)
let test_lexer_float_exponent () =
  List.iter
    (fun lit ->
      let src = Printf.sprintf "int main() { float x = %s; return 0; }" lit in
      match Bisa_compiler.Compiler.compile src with
      | _ -> Alcotest.failf "%s: expected a compile error" lit
      | exception Bisa_compiler.Compiler.Compile_error d ->
        Alcotest.(check bool)
          (lit ^ ": located at the literal")
          true
          (d.loc = Bisa_base.Diag.Src { line = 1; col = 24 }))
    [ "1.5e"; "1.5E+"; "2.0e-" ]

(* Every token kind, every keyword and operator, both comment forms and
   signed exponents in both cases. *)
let every_token_src =
  {|/* all */ int g[4]; float h = -1.5e+2;
int f(int a, float b) { return a; }
void v() { }
int main() {
  int x = 1; float y = 2.5E-1; // line
  if (x <= 2 && x >= 0 || x != 3) { x = x << 1 >> 1; } else { x = ~x ^ 1 | 2 & 3; }
  while (x < 0) { break; }
  do { x = x - 1; continue; } while (x > 9);
  for (x = 0; x == 1; x = x + 1) { }
  switch (x % 2) { case 0: x = x * 2 / 1; default: x = !x; }
  return f(g[0], y);
}
|}

let test_every_prefix () =
  ignore (Parser.parse every_token_src);
  for n = 0 to String.length every_token_src - 1 do
    match Parser.parse (String.sub every_token_src 0 n) with
    | _ | (exception Lexer.Error _) | (exception Parser.Error _) -> ()
  done

(* --- Parser -------------------------------------------------------------- *)

let test_parser_precedence () =
  (* 2 + 3 * 4 == 14 and not 20 *)
  check_outputs "int main() { print_int(2 + 3 * 4); return 0; }" [ 14 ];
  check_outputs "int main() { print_int((2 + 3) * 4); return 0; }" [ 20 ];
  check_outputs "int main() { print_int(1 << 2 + 1); return 0; }" [ 8 ];
  check_outputs "int main() { print_int(10 - 2 - 3); return 0; }" [ 5 ]

let test_parser_rejects () =
  rejects "int main() { return 1 +; }" "expected expression";
  rejects "int main() { if (1) return 2 }" "expected";
  rejects "int main(" "expected"

(* --- Typechecker ---------------------------------------------------------- *)

let test_type_errors () =
  rejects "int main() { return 1.5; }" "return type mismatch";
  rejects "int main() { int x = 1.0; return 0; }" "initializer type";
  rejects "int main() { float f = 1.0; return f + 1; }" "operand types differ";
  rejects "int main() { break; }" "break outside loop";
  rejects "int main() { return y; }" "undefined variable";
  rejects "int main() { return foo(); }" "undefined function";
  rejects "int f(int a) { return a; } int main() { return f(); }" "expects 1 argument";
  rejects "float g; int main() { if (g) { } return 0; }" "condition must be int";
  rejects "int t[4]; int main() { return t; }" "is an array";
  rejects "int x; int main() { return x[0]; }" "is a scalar";
  rejects "int main() { int a; int a; return 0; }" "duplicate declaration";
  rejects "int f() { return 0; } int f() { return 1; }" "duplicate function";
  rejects "int main() { switch (1) { case 1: case 1: } return 0; }" "duplicate case"

let test_shadowing () =
  check_ret
    {| int x;
       int main() { x = 5; int x = 7; { int x = 9; print_int(x); } return x; } |}
    7

(* --- Interpreter semantics ------------------------------------------------ *)

let test_arith_semantics () =
  check_outputs
    {| int main() {
         print_int(-7 / 2);      // truncation toward zero
         print_int(-7 % 2);
         print_int(7 / 0);       // defined as 0
         print_int(7 % 0);
         print_int(1 << 65);     // shift amounts masked to 6 bits
         print_int(~0);
         return 0; } |}
    [ -3; -1; 0; 0; 2; -1 ]

let test_short_circuit () =
  (* The right operand must not evaluate when the left decides. *)
  check_outputs
    {| int calls;
       int bump() { calls = calls + 1; return 1; }
       int main() {
         int a = 0 && bump();
         int b = 1 || bump();
         print_int(calls);
         print_int(a); print_int(b);
         int c = 1 && bump();
         print_int(calls);
         return 0; } |}
    [ 0; 0; 1; 1 ]

let test_loops () =
  check_outputs
    {| int main() {
         int s = 0; int i;
         for (i = 0; i < 5; i = i + 1) { if (i == 2) { continue; } s = s + i; }
         print_int(s);            // 0+1+3+4
         int j = 10;
         while (j > 0) { j = j - 3; if (j < 2) { break; } }
         print_int(j);
         int k = 0;
         do { k = k + 1; } while (k < 3);
         print_int(k);
         return 0; } |}
    [ 8; 1; 3 ]

let test_switch_no_fallthrough () =
  check_outputs
    {| int classify(int v) {
         switch (v) {
           case 1: return 10;
           case 2: return 20;
           case 5: return 50;
           default: return -1;
         }
       }
       int main() {
         print_int(classify(1)); print_int(classify(2));
         print_int(classify(3)); print_int(classify(5));
         return 0; } |}
    [ 10; 20; -1; 50 ]

let test_recursion () =
  check_outputs
    {| int ack(int m, int n) {
         if (m == 0) { return n + 1; }
         if (n == 0) { return ack(m - 1, 1); }
         return ack(m - 1, ack(m, n - 1));
       }
       int main() { print_int(ack(2, 3)); return 0; } |}
    [ 9 ]

let test_floats () =
  let r =
    run_src
      {| float acc;
         int main() {
           acc = 1.5;
           float x = acc * 4.0 - 2.0;   // 4.0
           print_float(x / 8.0);
           print_int(ftoi(x));
           print_float(itof(7) / 2.0);
           return 0; } |}
  in
  match r.outputs with
  | [ Interp.Oflt a; Interp.Oint b; Interp.Oflt c ] ->
    Alcotest.(check (float 1e-12)) "div" 0.5 a;
    Alcotest.(check int) "ftoi" 4 b;
    Alcotest.(check (float 1e-12)) "itof" 3.5 c
  | _ -> Alcotest.fail "unexpected output shape"

let test_globals_and_arrays () =
  check_outputs
    {| int g = 5;
       float fg = 2.5;
       int arr[10];
       int main() {
         int i;
         for (i = 0; i < 10; i = i + 1) { arr[i] = i * g; }
         print_int(arr[7]);
         print_int(ftoi(fg * 4.0));
         g = g + 1;
         print_int(g);
         return 0; } |}
    [ 35; 10; 6 ]

let test_array_bounds_checked () =
  match run_src "int a[4]; int main() { return a[9]; }" with
  | _ -> Alcotest.fail "expected bounds error"
  | exception Interp.Runtime_error msg ->
    Alcotest.(check bool) "mentions bounds" true
      (Astring_free.contains_substring msg "out of bounds")

let test_fuel () =
  match run_src ~fuel:1000 "int main() { while (1) { } return 0; }" with
  | _ -> Alcotest.fail "expected fuel exhaustion"
  | exception Interp.Out_of_fuel -> ()

let test_fall_off_end () =
  check_ret "int main() { int x = 3; }" 0

let suite =
  [
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer block comment" `Quick test_lexer_block_comment;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "lexer float exponent" `Quick test_lexer_float_exponent;
    Alcotest.test_case "every prefix lexes or fails located" `Quick test_every_prefix;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser rejects" `Quick test_parser_rejects;
    Alcotest.test_case "type errors" `Quick test_type_errors;
    Alcotest.test_case "shadowing" `Quick test_shadowing;
    Alcotest.test_case "arith semantics" `Quick test_arith_semantics;
    Alcotest.test_case "short circuit" `Quick test_short_circuit;
    Alcotest.test_case "loops" `Quick test_loops;
    Alcotest.test_case "switch" `Quick test_switch_no_fallthrough;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "floats" `Quick test_floats;
    Alcotest.test_case "globals and arrays" `Quick test_globals_and_arrays;
    Alcotest.test_case "array bounds" `Quick test_array_bounds_checked;
    Alcotest.test_case "fuel" `Quick test_fuel;
    Alcotest.test_case "fall off end" `Quick test_fall_off_end;
  ]
