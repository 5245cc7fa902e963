(* Pinned results: a change meant only to make the host faster must leave
   every one of these byte-identical. *)

(* MD5 of `experiments` stdout with default flags (identical at -j1 and
   -j2, and under either executor backend). *)
let report_md5 = "09c05ef517985e8e7d75aee01de64d97"

(* The smoke profile's report: table1, table2, fig3 and fig4 at scale 1. *)
let report_smoke_md5 = "1134d9a4be526c8f668e0d2cdbe5a606"

(* Per run: cycles, retired ops, icache misses, mispredicts, fault-squash
   redirects, squashed ops, dcache misses. *)
let sim_long =
  [
    ("gcc/conv/16KB", "1651615 4540651 360 46827 0 0 43389");
    ("gcc/block/16KB", "1516283 4526128 2876 46505 25517 190383 43389");
    ("gcc/conv/4KB", "1926079 4540651 49306 46827 0 0 43389");
    ("gcc/block/4KB", "1948931 4526128 82387 46505 25517 190383 43389");
    ("go/conv/16KB", "2576386 3852221 230 79595 0 0 210");
    ("go/block/16KB", "2432517 3707245 1680 80946 27455 207496 210");
    ("go/conv/4KB", "3232354 3852221 114963 79595 0 0 210");
    ("go/block/4KB", "3845243 3707245 251531 80946 27455 207496 210");
    ("m88ksim/conv/16KB", "3817318 11931014 56 74040 0 0 44411");
    ("m88ksim/block/16KB", "3044814 11850088 108 57370 39570 201321 44411");
    ("m88ksim/conv/4KB", "3817318 11931014 56 74040 0 0 44411");
    ("m88ksim/block/4KB", "3044898 11850088 129 57370 39570 201321 44411");
  ]

(* The smoke profile: the same runs at scale 1. *)
let sim_long_smoke =
  [
    ("gcc/conv/16KB", "176364 431056 360 5836 0 0 4080");
    ("gcc/block/16KB", "169212 429746 768 6331 3916 26892 4080");
    ("gcc/conv/4KB", "201118 431056 4865 5836 0 0 4080");
    ("gcc/block/4KB", "211948 429746 8367 6331 3916 26892 4080");
    ("go/conv/16KB", "27749 45446 230 708 0 0 193");
    ("go/block/16KB", "32877 43453 454 1073 618 5127 193");
    ("go/conv/4KB", "37372 45446 1919 708 0 0 193");
    ("go/block/4KB", "48452 43453 3304 1073 618 5127 193");
    ("m88ksim/conv/16KB", "264672 795112 56 5633 0 0 3268");
    ("m88ksim/block/16KB", "211801 789667 107 4399 3067 15322 3268");
    ("m88ksim/conv/4KB", "264672 795112 56 5633 0 0 3268");
    ("m88ksim/block/4KB", "211801 789667 107 4399 3067 15322 3268");
  ]
