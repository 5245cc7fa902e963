(* Unified failure model: every layer of the toolchain reports errors as a
   structured diagnostic instead of a bare string, so the CLIs (and the
   differential fuzzer) can render, classify and compare failures without
   parsing exception messages. *)

type severity = Error | Warning | Note

(* Where the problem is.  Compiler-side failures point into MiniC source;
   decoder-side failures point at a byte offset within a named section of
   the binary image; simulator-side failures usually have no location. *)
type loc =
  | No_loc
  | Src of { line : int; col : int }
  | Byte of { offset : int; section : string }

type t = {
  severity : severity;
  component : string;  (** "compiler", "encode", "sim.block", "timing", ... *)
  loc : loc;
  message : string;
}

let make ?(severity = Error) ?(loc = No_loc) ~component message =
  { severity; component; loc; message }

let error ?loc ~component message = make ~severity:Error ?loc ~component message
let warning ?loc ~component message = make ~severity:Warning ?loc ~component message

let errorf ?loc ~component fmt =
  Printf.ksprintf (fun message -> error ?loc ~component message) fmt

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let loc_to_string = function
  | No_loc -> ""
  | Src { line; col } -> Printf.sprintf "%d:%d" line col
  | Byte { offset; section } -> Printf.sprintf "byte %d (%s section)" offset section

(* One line, suitable for a CLI's stderr:
   [error] compiler: 3:7: type error: operand types differ *)
let render t =
  let loc = loc_to_string t.loc in
  if loc = "" then
    Printf.sprintf "[%s] %s: %s" (severity_to_string t.severity) t.component t.message
  else
    Printf.sprintf "[%s] %s: %s: %s" (severity_to_string t.severity) t.component loc
      t.message

(* Generic carrier for failures that do not have a dedicated exception;
   new code should prefer raising this over Failure/Invalid_argument. *)
exception Fail of t

let fail ?loc ~component fmt =
  Printf.ksprintf (fun message -> raise (Fail (error ?loc ~component message))) fmt

(* Byte-offset helper for decoders. *)
let at_byte ~offset ~section = Byte { offset; section }
let at_src ~line ~col = Src { line; col }
