let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if parent <> path then mkdir_p parent;
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let vm_hwm_kb () =
  match read_file "/proc/self/status" with
  | exception Sys_error _ -> 0
  | status ->
    String.split_on_char '\n' status
    |> List.find_map (fun line -> Scanf.sscanf_opt line "VmHWM: %d" Fun.id)
    |> Option.value ~default:0
