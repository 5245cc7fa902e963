(** Structured event callbacks threaded through the timing pipelines.

    A probe is a record of per-event hooks the pipelines invoke as the
    simulated front end works: fetch-unit start/retire, trap prediction
    and redirects, fault squashes, cache and BTB and trace-cache
    activity, and window occupancy.  All hook arguments are immediates
    (ints, bools, constant constructors), so invoking a hook never
    allocates — with {!null} installed the hot path stays allocation-free
    (enforced by [test_golden.ml]'s allocation bound).

    Event taxonomy (DESIGN.md section 11):
    - [unit_start]/[unit_retire] bracket one fetch unit (a basic block on
      the conventional core, an atomic block on the block-structured
      core).  [unit_retire ~committed:false] is a fault-squashed unit.
    - [predict] reports each trap/branch prediction outcome.
    - [redirect] fires where the pipelines charge a fetch-redirect
      penalty: [cause] distinguishes an ordinary misprediction from a
      fault squash, so redirect events always reconcile with the
      aggregate [mispredicts] counter.
    - [squash] fires once per fault-squashed atomic block.
    - [icache_access]/[dcache_access] fire once per cache-line access
      (wired through {!Bisa_uarch.Cache} hooks), [btb_lookup] per BTB
      probe, [tc_lookup]/[tc_serve] per trace-cache lookup and served
      packet.
    - [occupancy] samples the ops resident in the retirement window at
      each dispatch, feeding the pipeline-occupancy timeline. *)

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

val null : t
(** Every hook ignores its arguments.  Physically unique, so pipelines
    can test {!is_null} once and skip hook wiring entirely. *)

val is_null : t -> bool
(** Physical equality with {!null}. *)

val of_option : t option -> t
(** [of_option None] is {!null}. *)
