(* The named workloads: which input, at which size, through which driver.
   [tiny] sizes are for the self-test only. *)

type t = {
  name : string;
  run : Common.config -> Common.outcome;
}

let size cfg ~full ~tiny = if cfg.Common.tiny then tiny else full

let all =
  [ { name = "cold-dc-bgp";
      run = (fun cfg -> Cold.run cfg ~profile:"NET10" ~scale:(size cfg ~full:1.5 ~tiny:0.25) ~loops:true) };
    { name = "cold-ha-fabric";
      run = (fun cfg -> Cold.run cfg ~profile:"NET12" ~scale:(size cfg ~full:8.0 ~tiny:0.25) ~loops:false) };
    { name = "serve-whatif";
      run = (fun cfg -> Serve.run cfg ~profile:"NET10" ~scale:(size cfg ~full:1.0 ~tiny:0.25)) };
    { name = "failures-dc-k1";
      run = (fun cfg -> Sweep.run cfg ~profile:"NET3" ~scale:(size cfg ~full:0.75 ~tiny:0.5)) } ]

let find name = List.find_opt (fun w -> w.name = name) all
