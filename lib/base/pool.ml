(* A fixed-size Domain pool over one mutex-protected queue.

   Two invariants carry all the correctness arguments below:

   1. A future is Pending iff its task is either still in the queue or
      currently executing on some domain.  Queue operations happen under
      [t.m], and the executing domain settles the future (under the
      future's own mutex) before touching the queue again.

   2. [await] never blocks while the queue is non-empty: it first tries
      to pop and run a task itself.  So if every domain is blocked in
      [await], every pending task is already executing somewhere — which
      is impossible when all of them are blocked — hence no deadlock,
      including for nested [map_list] calls from inside pool tasks. *)

type t = {
  size : int;  (* total parallelism, including the submitting domain *)
  m : Mutex.t;
  work_ready : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

type 'a state =
  | Pending
  | Done of 'a
  | Raised of exn * Printexc.raw_backtrace

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable st : 'a state;
  pool : t;
}

let default_workers () = max 1 (Domain.recommended_domain_count ())
let workers t = t.size

let settle fut st =
  Mutex.lock fut.fm;
  fut.st <- st;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

let run_task fut f =
  match f () with
  | v -> settle fut (Done v)
  | exception e -> settle fut (Raised (e, Printexc.get_raw_backtrace ()))

let rec worker_loop t =
  Mutex.lock t.m;
  let rec next () =
    if t.stop then None
    else
      match Queue.take_opt t.queue with
      | Some _ as task -> task
      | None ->
        Condition.wait t.work_ready t.m;
        next ()
  in
  let task = next () in
  Mutex.unlock t.m;
  match task with
  | None -> ()
  | Some task ->
    task ();
    worker_loop t

let create ?workers () =
  let size = max 1 (Option.value workers ~default:(default_workers ())) in
  let t =
    {
      size;
      m = Mutex.create ();
      work_ready = Condition.create ();
      queue = Queue.create ();
      stop = false;
      domains = [];
    }
  in
  t.domains <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let sequential = create ~workers:1 ()

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.m;
  List.iter Domain.join t.domains;
  t.domains <- []

let run ?workers f =
  let t = create ?workers () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let submit t f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); st = Pending; pool = t } in
  if t.size <= 1 then run_task fut f
  else begin
    Mutex.lock t.m;
    if t.stop then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.submit: pool is shut down"
    end;
    Queue.add (fun () -> run_task fut f) t.queue;
    Condition.signal t.work_ready;
    Mutex.unlock t.m
  end;
  fut

(* Pop-and-run one queued task, if any. *)
let try_help t =
  Mutex.lock t.m;
  let task = Queue.take_opt t.queue in
  Mutex.unlock t.m;
  match task with
  | Some f ->
    f ();
    true
  | None -> false

let rec await fut =
  Mutex.lock fut.fm;
  match fut.st with
  | Done v ->
    Mutex.unlock fut.fm;
    v
  | Raised (e, bt) ->
    Mutex.unlock fut.fm;
    Printexc.raise_with_backtrace e bt
  | Pending ->
    Mutex.unlock fut.fm;
    if try_help fut.pool then await fut
    else begin
      (* Queue drained, so by invariant 1 this task is executing on some
         other domain; block until it settles (re-checking under the lock
         against the settle that may have raced the drain check). *)
      Mutex.lock fut.fm;
      (match fut.st with Pending -> Condition.wait fut.fc fut.fm | Done _ | Raised _ -> ());
      Mutex.unlock fut.fm;
      await fut
    end

let map_list t f xs =
  if t.size <= 1 then List.map f xs
  else begin
    let futures = List.map (fun x -> submit t (fun () -> f x)) xs in
    (* Settle everything first, then re-raise the earliest failure, so no
       task keeps running after the call returns. *)
    let settled =
      List.map
        (fun fut ->
          match await fut with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
        futures
    in
    List.map
      (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      settled
  end

module Once = struct
  type 'a once_state =
    | Unforced of (unit -> 'a)
    | Forced of 'a
    | Failed of exn * Printexc.raw_backtrace

  type 'a cell = { om : Mutex.t; mutable ost : 'a once_state }

  let make f = { om = Mutex.create (); ost = Unforced f }

  (* The mutex is held across the computation: concurrent forcers block
     until the single evaluation settles the cell. *)
  let force c =
    Mutex.lock c.om;
    match c.ost with
    | Forced v ->
      Mutex.unlock c.om;
      v
    | Failed (e, bt) ->
      Mutex.unlock c.om;
      Printexc.raise_with_backtrace e bt
    | Unforced f -> begin
      match f () with
      | v ->
        c.ost <- Forced v;
        Mutex.unlock c.om;
        v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        c.ost <- Failed (e, bt);
        Mutex.unlock c.om;
        Printexc.raise_with_backtrace e bt
    end

  (* A cell is found or installed under the table's lock and forced
     outside it, so a slow computation never holds the table.  The hit
     path locks by hand: [Mutex.protect]'s closure would allocate. *)
  type ('k, 'a) table = { tm : Mutex.t; cells : ('k, 'a cell) Hashtbl.t }

  let table n = { tm = Mutex.create (); cells = Hashtbl.create n }

  let find t k =
    Mutex.lock t.tm;
    let c = Hashtbl.find_opt t.cells k in
    Mutex.unlock t.tm;
    c

  let find_or_add t k f =
    Mutex.lock t.tm;
    let found = Hashtbl.find_opt t.cells k in
    let c = match found with Some c -> c | None -> make f in
    if Option.is_none found then Hashtbl.add t.cells k c;
    Mutex.unlock t.tm;
    c

  let memo t k f = force (find_or_add t k f)

  let remove ?cell t k =
    Mutex.protect t.tm @@ fun () ->
    match (cell, Hashtbl.find_opt t.cells k) with
    | Some c, Some c' when c != c' -> ()
    | _ -> Hashtbl.remove t.cells k

  let length t = Mutex.protect t.tm (fun () -> Hashtbl.length t.cells)
end
