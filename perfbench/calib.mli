(** The host-speed yardstick.

    The reference machine is a VM on a shared host.  How fast it runs the
    same code drifts by up to about 1.8x over minutes, as neighbours
    contend for the host's caches and memory (a plain ALU loop barely
    slows; memory-bound code does).  One 30 s run lies inside one such
    phase, so no summary of the run's own samples removes the drift.

    The benchmark therefore times this fixed kernel, which uses no code of
    the repository, every half second or so of a run, and scales each
    host time it measures by {!reference} over the sample taken just
    before it: each is reported at the reference host speed. *)

val sample : unit -> float
(** Run the kernel once on the calling domain; its wall time in seconds,
    about {!reference} on the reference machine.  The first call
    allocates the kernel's 4.3 MB of state, which later calls on the same
    domain reuse. *)

val sample_on : Bisa_base.Pool.t -> float
(** Run the kernel on every domain of an idle pool at once; the mean of
    their wall times in seconds.  For workloads that keep all of the
    pool's domains busy, whose speed is that of every core they run on,
    not of the main domain's alone. *)

val reference : float
(** The kernel's typical time on the reference machine, in seconds (one
    domain or the mean of two at once read about the same). *)
