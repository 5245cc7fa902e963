type redirect_cause = Mispredict | Fault_squash

type t = {
  unit_start : cycle:int -> addr:int -> ops:int -> unit;
  unit_retire :
    dispatch:int -> resolve:int -> retire:int -> ops:int -> committed:bool -> unit;
  predict : pc:int -> correct:bool -> unit;
  redirect : cycle:int -> until:int -> cause:redirect_cause -> unit;
  squash : cycle:int -> block:int -> ops:int -> unit;
  icache_access : addr:int -> hit:bool -> unit;
  dcache_access : addr:int -> hit:bool -> unit;
  btb_lookup : key:int -> hit:bool -> unit;
  tc_lookup : start:int -> hit:bool -> unit;
  tc_serve : ops:int -> unit;
  occupancy : cycle:int -> ops:int -> unit;
}

let null =
  {
    unit_start = (fun ~cycle:_ ~addr:_ ~ops:_ -> ());
    unit_retire = (fun ~dispatch:_ ~resolve:_ ~retire:_ ~ops:_ ~committed:_ -> ());
    predict = (fun ~pc:_ ~correct:_ -> ());
    redirect = (fun ~cycle:_ ~until:_ ~cause:_ -> ());
    squash = (fun ~cycle:_ ~block:_ ~ops:_ -> ());
    icache_access = (fun ~addr:_ ~hit:_ -> ());
    dcache_access = (fun ~addr:_ ~hit:_ -> ());
    btb_lookup = (fun ~key:_ ~hit:_ -> ());
    tc_lookup = (fun ~start:_ ~hit:_ -> ());
    tc_serve = (fun ~ops:_ -> ());
    occupancy = (fun ~cycle:_ ~ops:_ -> ());
  }

let is_null t = t == null
let of_option = function Some p -> p | None -> null
