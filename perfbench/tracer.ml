type span = {
  id : int;
  name : string;
  layer : string;
  dom : int;
  t0 : float;
  t1 : float;
  parent : int;
  req : int;
}

type t = {
  epoch : float;
  lock : Mutex.t;
  mutable recorded : span list;
  next : int Atomic.t;
  open_ : int list ref Domain.DLS.key;  (* this domain's open spans, innermost first *)
}

let create () =
  {
    epoch = Unix.gettimeofday ();
    lock = Mutex.create ();
    recorded = [];
    next = Atomic.make 1;
    open_ = Domain.DLS.new_key (fun () -> ref []);
  }

let dom () = (Domain.self () :> int)

let add t s =
  Mutex.lock t.lock;
  t.recorded <- s :: t.recorded;
  Mutex.unlock t.lock

let top t = match !(Domain.DLS.get t.open_) with p :: _ -> Some p | [] -> None
let current = function None -> 0 | Some t -> Option.value (top t) ~default:0

let record t ?parent ?(dom = dom ()) ~layer ~name ~t0 ~t1 () =
  let parent = match parent with Some p -> p | None -> current (Some t) in
  add t { id = Atomic.fetch_and_add t.next 1; name; layer; dom; t0; t1; parent; req = -1 }

let span tr ?(req = -1) ?(outer = 0) ~layer name f =
  match tr with
  | None -> f ()
  | Some t ->
    let stack = Domain.DLS.get t.open_ in
    let parent = Option.value (top t) ~default:outer in
    let id = Atomic.fetch_and_add t.next 1 in
    let t0 = Unix.gettimeofday () in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        stack := List.tl !stack;
        add t { id; name; layer; dom = dom (); t0; t1; parent; req })
      f

let phases tr ~layer ~t0 list =
  match tr with
  | None -> ()
  | Some t ->
    ignore
      (List.fold_left
         (fun start (name, secs) ->
           let stop = start +. secs in
           record t ~layer ~name ~t0:start ~t1:stop ();
           stop)
         t0 list)

let spans t =
  Mutex.lock t.lock;
  let s = t.recorded in
  Mutex.unlock t.lock;
  s

let index spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  by_id

(* Children that nest on the same thread; a parent on another domain
   ran concurrently, so it neither contains its child's time in its own
   self time nor nests it in the Chrome view. *)
let same_domain_parent by_id s =
  match Hashtbl.find_opt by_id s.parent with
  | Some p when p.dom = s.dom -> Some p
  | _ -> None

let self_times spans =
  let by_id = index spans in
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      match same_domain_parent by_id s with
      | Some p ->
        Hashtbl.replace covered p.id
          (Option.value (Hashtbl.find_opt covered p.id) ~default:0. +. (s.t1 -. s.t0))
      | None -> ())
    spans;
  List.map
    (fun s -> (s, s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.))
    spans

(* Spans timed by separate clock reads may disagree by a rounding step. *)
let slack = 1e-6

let check_nesting spans =
  let by_id = index spans in
  let bad =
    List.find_opt
      (fun s ->
        s.t1 < s.t0 -. slack
        ||
        match Hashtbl.find_opt by_id s.parent with
        | Some p -> s.t0 < p.t0 -. slack || s.t1 > p.t1 +. slack
        | None -> s.parent <> 0)
      spans
  in
  match bad with
  | None -> Ok ()
  | Some s -> Error (Printf.sprintf "span %d (%s) lies outside its parent %d" s.id s.name s.parent)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_chrome_json t =
  let spans = spans t in
  let by_id = index spans in
  let kids = Hashtbl.create 1024 in
  let roots = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match same_domain_parent by_id s with
      | Some p -> Hashtbl.replace kids p.id (s :: Option.value (Hashtbl.find_opt kids p.id) ~default:[])
      | None -> Hashtbl.replace roots s.dom (s :: Option.value (Hashtbl.find_opt roots s.dom) ~default:[]))
    spans;
  let order = List.sort (fun a b -> compare (a.t0, a.t1) (b.t0, b.t1)) in
  (* Floor to whole microseconds: monotone, so nested and back-to-back
     spans stay ordered on each thread. *)
  let us x = int_of_float ((x -. t.epoch) *. 1e6) in
  let events = ref [] in
  let emit e = events := e :: !events in
  let rec walk s =
    emit
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"B\",\"ts\":%d,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
         (escape s.name) (escape s.layer) (us s.t0) s.dom s.id s.parent s.req);
    List.iter walk (order (Option.value (Hashtbl.find_opt kids s.id) ~default:[]));
    emit
      (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"E\",\"ts\":%d,\"pid\":1,\"tid\":%d}"
         (escape s.name) (escape s.layer) (us s.t1) s.dom)
  in
  emit "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"perfbench\"}}";
  List.iter
    (fun d ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"domain %d\"}}"
           d d);
      List.iter walk (order (Hashtbl.find roots d)))
    (List.sort compare (Hashtbl.fold (fun d _ acc -> d :: acc) roots []));
  "{\"traceEvents\":[\n" ^ String.concat ",\n" (List.rev !events) ^ "\n]}\n"
