(* The six query-class configurations beyond the join schemes — the
   three set operations, both aggregation strategies and one selection —
   over small synthetic workloads.  Shared by the pinned-transcript test
   (test_core_protocols), the per-phase crypto tally (test_obs) and the
   fault differential (test_fault). *)

open Secmed_mediation
open Secmed_core

let fast = { Env.group_bits = 160; paillier_bits = 384 }

type t = {
  name : string;
  final_label : string;  (** the class's last mediator -> client message *)
  run : Fault.plan option -> Outcome.t;
}

let spec =
  {
    Workload.default with
    rows_left = 10;
    rows_right = 10;
    distinct_left = 5;
    distinct_right = 5;
    overlap = 3;
    extra_attrs = 1;
  }

let scenario spec = lazy (Workload.scenario ~params:fast spec)
let joined = scenario spec

(* Whole-tuple set operations need layout-identical relations: the join
   column alone. *)
let keys_only = scenario { spec with extra_attrs = 0 }

(* The homomorphic strategy needs duplicate-free left join keys. *)
let unique_left = scenario { spec with rows_left = 5 }

let on scenario f fault =
  let env, client, _ = Lazy.force scenario in
  f ?fault env client

let set_op op scenario =
  {
    name = Set_ops.op_name op;
    final_label = "selected-payloads";
    run =
      on scenario (fun ?fault env client ->
          Set_ops.run ?fault env client op ~left:"R1" ~right:"R2");
  }

let all =
  [
    set_op Set_ops.Intersection keys_only;
    set_op Set_ops.Semi_join joined;
    set_op Set_ops.Difference keys_only;
    {
      name = "aggregate";
      final_label = "matched-bundles";
      run =
        on joined (fun ?fault env client ->
            Aggregate_join.run ?fault env client
              ~query:
                "select a_join, count(*) as n, sum(l0) as total from R1 natural join R2 group \
                 by a_join");
    };
    {
      name = "aggregate-homomorphic";
      final_label = "aggregate-totals";
      run =
        on unique_left (fun ?fault env client ->
            Aggregate_join.run ?fault ~strategy:Aggregate_join.Homomorphic env client
              ~query:"select count(*) as n, sum(r0) as total from R1 natural join R2");
    };
    {
      name = "das-select";
      final_label = "RC";
      run =
        on joined (fun ?fault env client ->
            Select_query.run ?fault env client ~query:"select * from R1 where l0 < 500");
    };
  ]

let find name = List.find (fun c -> String.equal c.name name) all
