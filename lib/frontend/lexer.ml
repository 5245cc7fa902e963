type token =
  | INT_LIT of int
  | FLT_LIT of float
  | IDENT of string
  | KW of string
  | PUNCT of string
  | EOF

type t = { tok : token; pos : Ast.pos }

exception Error of string * Ast.pos

let is_keyword = function
  | "int" | "float" | "void" | "if" | "else" | "while" | "do" | "for" | "switch"
  | "case" | "default" | "return" | "break" | "continue" ->
    true
  | _ -> false

(* Punctuation: the two-character operators, which win over their
   one-character prefixes, and the one-character tokens. *)
let is_punct2 c d =
  match (c, d) with
  | ('<' | '>' | '=' | '!'), '=' | '&', '&' | '|', '|' | '<', '<' | '>', '>' -> true
  | _ -> false

let is_punct1 = function
  | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '~' | '!' | '<' | '>' | '=' | '(' | ')'
  | '{' | '}' | '[' | ']' | ';' | ',' | ':' ->
    true
  | _ -> false

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let tokenize src =
  let n = String.length src in
  let line = ref 1 and bol = ref 0 in
  let pos i = { Ast.line = !line; col = i - !bol + 1 } in
  let toks = ref [] in
  let i = ref 0 in
  let newline at = incr line; bol := at + 1 in
  let error msg at = raise (Error (msg, pos at)) in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      newline !i;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      let start = !i in
      i := !i + 2;
      let rec skip () =
        if !i + 1 >= n then error "unterminated comment" start
        else if src.[!i] = '*' && src.[!i + 1] = '/' then i := !i + 2
        else begin
          if src.[!i] = '\n' then newline !i;
          incr i;
          skip ()
        end
      in
      skip ()
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do incr i done;
      let is_float =
        (!i < n && src.[!i] = '.' && !i + 1 < n && is_digit src.[!i + 1])
      in
      if is_float then begin
        incr i;
        while !i < n && is_digit src.[!i] do incr i done;
        (* optional exponent, which needs at least one digit *)
        if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
          incr i;
          if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
          if not (!i < n && is_digit src.[!i]) then
            error ("float exponent has no digits: " ^ String.sub src start (!i - start)) start;
          while !i < n && is_digit src.[!i] do incr i done
        end;
        let s = String.sub src start (!i - start) in
        toks := { tok = FLT_LIT (float_of_string s); pos = pos start } :: !toks
      end
      else begin
        let s = String.sub src start (!i - start) in
        match int_of_string_opt s with
        | Some v -> toks := { tok = INT_LIT v; pos = pos start } :: !toks
        | None -> error ("integer literal out of range: " ^ s) start
      end
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let s = String.sub src start (!i - start) in
      let tok = if is_keyword s then KW s else IDENT s in
      toks := { tok; pos = pos start } :: !toks
    end
    else begin
      let len =
        if !i + 1 < n && is_punct2 c src.[!i + 1] then 2
        else if is_punct1 c then 1
        else error (Printf.sprintf "unexpected character %C" c) !i
      in
      toks := { tok = PUNCT (String.sub src !i len); pos = pos !i } :: !toks;
      i := !i + len
    end
  done;
  List.rev ({ tok = EOF; pos = pos !i } :: !toks)

let token_to_string = function
  | INT_LIT v -> string_of_int v
  | FLT_LIT v -> string_of_float v
  | IDENT s -> s
  | KW s -> s
  | PUNCT s -> s
  | EOF -> "<eof>"
