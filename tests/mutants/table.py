"""The standing mutant set: small faults the tests must catch.

Each :class:`Mutant` names one file under the repository root, the exact
text to replace (it must occur there exactly once), the text that replaces
it, and the test ids expected to kill it.  ``tests/mutants/run.py`` applies
each to a copy of the tree and requires its tests to fail.  A test that is
deleted or rewritten must leave every mutant here killed; an entry whose
code is rewritten is carried over to the new code, not dropped.

An *equivalent* mutant changes no result any test could see.  It carries
the argument instead of tests and is not run.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    kill: Tuple[str, ...]  # pytest ids, each run with -x until one fails
    equivalent: str = ""  # why no test can kill it (then ``kill`` is empty)


ALLOC = "src/repro/net/alloc.py"
FLUID = "src/repro/net/fluid.py"
ORCHESTRATOR = "src/repro/core/measurement/orchestrator.py"
PROVIDER = "src/repro/cloud/provider.py"
MIGRATION = "src/repro/runtime/migration.py"
ENGINE = "src/repro/service/engine.py"
CACHE = "src/repro/service/cache.py"
EXECUTOR = "src/repro/runtime/executor.py"
METRICS = "src/repro/obs/metrics.py"
TOPOLOGY = "src/repro/net/topology.py"
TRACE = "src/repro/workloads/trace.py"

MEMBERSHIP = "tests/test_link_membership.py::test_membership_follows_the_rows_under_random_edits"
TRUTH = "tests/test_truth_property.py::test_every_run_keeps_its_invariants"
PLANTED = "tests/test_truth_property.py::test_a_planted_rate_fault_is_reported"
OTHER_TENANT = (
    "tests/test_live_books.py::"
    "test_campaigns_see_what_the_other_tenant_has_left_and_the_books_never_count_it"
)
BLOCK_SIZE = "tests/test_campaign_batch.py::test_the_profile_does_not_depend_on_the_block_size"
FRESH_RUN = (
    "tests/test_choreo_e2e.py::"
    "test_run_applications_is_a_fresh_simulation_of_the_placed_flows"
)

ROWS = "tests/test_provider_rows.py::"
ROUTER = "tests/test_millionflow.py::TestStructuredRouting::"
HAND_BUILT = ROUTER + "test_a_hand_built_copy_routes_every_pair_as_the_tree_does"
FULL_MESH = "tests/test_campaign_batch.py::test_full_mesh_is_bit_identical"
ONE_PASS = "tests/test_choreo_e2e.py::test_the_one_pass_profile_is_the_record_by_record_one"
BINDING = "tests/test_alloc_binding.py::"
LAYOUT = "tests/test_topology.py::test_the_tree_is_the_hand_built_copy_link_for_link"
TABLE_READ = "tests/test_route_table.py::test_the_table_read_is_the_routed_minimum"
LOCKSTEP = "tests/test_lockstep.py::"
RELABEL = "tests/test_level_rule.py::test_rates_do_not_depend_on_how_links_are_numbered"
ONE_RULE = (
    "tests/test_scale.py::TestOneBottleneckRule::"
    "test_full_scalar_full_vector_and_live_solves_are_equal"
)
WORK = "tests/test_work_counts.py::"
GREEDY_RUNS = (
    "tests/test_admission_arrays.py::TestGreedyAgainstScalarAlgorithm1::"
    "test_runs_of_placed_transfers_count_only_their_crossing_connections"
)
LINKLESS = "tests/test_fluid.py::test_a_linkless_flow_beside_hosed_ones_completes_as_it_starts"
EPS_FOLD = "tests/test_fluid.py::test_a_finish_folds_in_the_byte_tolerance"

MUTANTS: Tuple[Mutant, ...] = (
    # ---------------------------------------- the rows a provider hands over
    Mutant(
        "the hose column is omitted for a crossing flow",
        PROVIDER,
        "            vm_host[src] != vm_host[dst], self.topology.capacity_vector().shape[0] + src, -1\n",
        "            vm_host[src] < 0, self.topology.capacity_vector().shape[0] + src, -1\n",
        (ROWS + "test_each_flows_row_is_its_senders_hose_then_its_route",),
    ),
    Mutant(
        "the hose column reads the destination VM",
        PROVIDER,
        "            vm_host[src] != vm_host[dst], self.topology.capacity_vector().shape[0] + src, -1\n",
        "            vm_host[src] != vm_host[dst], self.topology.capacity_vector().shape[0] + dst, -1\n",
        (ROWS + "test_each_flows_row_is_its_senders_hose_then_its_route",),
    ),
    Mutant(
        "add_flows hands rows whose hose column is dropped",
        PROVIDER,
        "        rows = np.concatenate((self._hose_column(at[:, 0], at[:, 1])[:, None], paths), axis=1)\n",
        "        rows = np.concatenate((np.full((at.shape[0], 1), -1), paths), axis=1)\n",
        (ROWS + "test_each_flows_row_is_its_senders_hose_then_its_route",),
    ),
    Mutant(
        "the routes bound check is written > instead of >=",
        FLUID,
        "(data.min() < 0 or data.max() >= universe)",
        "(data.min() < 0 or data.max() > universe)",
        (ROWS + "test_bad_routes_are_refused_and_change_nothing",),
    ),
    Mutant(
        "the VM-set guard is skipped",
        PROVIDER,
        "        if sim.topology is not self.topology or sim.extra_link_ids != hoses:\n",
        "        if False:\n",
        (ROWS + "test_a_simulation_of_another_vm_set_is_refused_and_left_as_it_was",),
    ),
    # ---------------------------------------------- the campaign's blocks
    Mutant(
        "the last partial block is dropped",
        ORCHESTRATOR,
        "            while trains.remaining:\n",
        "            while trains.remaining >= _TRAIN_BLOCK:\n",
        (BLOCK_SIZE,),
    ),
    Mutant(
        "a lossy pass draws its losses per block",
        PROVIDER,
        "            received, first_index, last_index = (\n"
        "                drawn[:, lo:hi] for drawn in self._losses\n"
        "            )\n",
        "            received, first_index, last_index = draw_losses(\n"
        "                self._rng, spec, params.loss_rate, hi - lo\n"
        "            )\n",
        (BLOCK_SIZE,),
    ),
    Mutant(
        "a campaign charges 1.1 s of overhead per pair",
        ORCHESTRATOR,
        "PER_PAIR_OVERHEAD_S = 1.0\n",
        "PER_PAIR_OVERHEAD_S = 1.1\n",
        ("tests/test_campaign_batch.py::test_a_ten_vm_mesh_takes_at_most_three_minutes",),
    ),
    # ------------------------------------------- the tree's rack-pair table
    Mutant(
        "the rack table's near and far columns are swapped",
        TOPOLOGY,
        "        near = other & ~far\n",
        "        near, far = far, other & ~far\n",
        (HAND_BUILT,),
    ),
    Mutant(
        "the vectorised rack table reads each rack one pod off",
        TOPOLOGY,
        "        pod = np.arange(racks) // spec.racks_per_pod\n",
        "        pod = (np.arange(racks) + 1) // spec.racks_per_pod\n",
        (LAYOUT, HAND_BUILT),
    ),
    Mutant(
        "the core patch reads the source pod's core_down",
        TOPOLOGY,
        "core_down = [index[directed_link_id(core, down)] for _, core, down in ends]",
        "core_down = [index[directed_link_id(core, up)] for up, core, _ in ends]",
        (HAND_BUILT,),
    ),
    Mutant(
        "the host down link is written one column past the route's end",
        TOPOLOGY,
        "        last -= 1\n",
        "",
        (HAND_BUILT,),
    ),
    Mutant(
        "the core pick mixes the two hosts' keys in the wrong order",
        TOPOLOGY,
        "            core += self.core_picks(src[far], dst[far])\n",
        "            core += self.core_picks(dst[far], src[far])\n",
        (HAND_BUILT,),
    ),
    # --------------------------------------------------- the one router
    Mutant(
        "host names map to positions with src and dst swapped",
        TOPOLOGY,
        "        return src, dst\n",
        "        return dst, src\n",
        (HAND_BUILT,),
    ),
    # ------------------------------------------------- a topology is its tree
    Mutant(
        "a host's loopback link is laid out after its ToR links",
        TOPOLOGY,
        "                    links[loopback_link_id(host)] = spec.intra_host_bps\n"
        "                    cable(host, tor, spec.host_link_bps)\n",
        "                    cable(host, tor, spec.host_link_bps)\n"
        "                    links[loopback_link_id(host)] = spec.intra_host_bps\n",
        (LAYOUT,),
    ),
    Mutant(
        "hosts() lists the hosts in position order, not by name",
        TOPOLOGY,
        "        return list(self._hosts_by_name)\n",
        "        return list(self._host_names)\n",
        (LAYOUT,),
    ),
    Mutant(
        "rack_of answers the next rack",
        TOPOLOGY,
        "        pod, rack = divmod(self.host_index(host) // spec.hosts_per_rack, spec.racks_per_pod)\n",
        "        pod, rack = divmod(self.host_index(host) // spec.hosts_per_rack + 1, spec.racks_per_pod)\n",
        (LAYOUT,),
    ),
    Mutant(
        "a capacity of 0 passes the TreeSpec check",
        TOPOLOGY,
        "            if not capacity > 0:\n",
        "            if not capacity >= 0:\n",
        ("tests/test_topology.py::test_a_capacity_must_be_a_positive_number",),
    ),
    # ------------------------------------------------ a block's own rows
    Mutant(
        "a rack pair's narrowest link reads -1 padding as capacity 0, not +inf",
        TOPOLOGY,
        "        rack_narrowest = np.append(capacity, np.inf)[rack_rows].min(axis=1)\n",
        "        rack_narrowest = np.append(capacity, 0.0)[rack_rows].min(axis=1)\n",
        (FULL_MESH, TABLE_READ),
    ),
    Mutant(
        "the table read leaves out a cross-pod route's core links",
        TOPOLOGY,
        "        if far.shape[0]:\n            core = tables.pod_pair[pair[far]]\n"
        "            core += self._router.core_picks(src[far], dst[far])\n            narrowest[far]",
        "        if False:\n            core = tables.pod_pair[pair[far]]\n"
        "            core += self._router.core_picks(src[far], dst[far])\n            narrowest[far]",
        (TABLE_READ,),
    ),
    Mutant(
        "a block's slice of the schedule is off by one",
        PROVIDER,
        "            pairs = self._schedule[lo:hi]\n",
        "            pairs = self._schedule[lo + 1 : hi + 1]\n",
        (FULL_MESH,),
    ),
    Mutant(
        "a block writes its estimates to the transposed cells",
        ORCHESTRATOR,
        "                cells = cells[:, 0] * n + cells[:, 1]\n",
        "                cells = cells[:, 1] * n + cells[:, 0]\n",
        (FULL_MESH,),
    ),
    Mutant(
        "a first packet reads the last packet's jitter",
        "src/repro/net/packets.py",
        "        first_rx += normals[:, 1::2].T * 0.1\n",
        "        first_rx += normals[:, 2::2].T * 0.1\n",
        (FULL_MESH,),
    ),
    # ------------------------------------------------- the one-pass profile
    Mutant(
        "an empty record adds its pair",
        TRACE,
        "    moving = ((num_bytes > 0) & (src != dst)).nonzero()[0]\n",
        "    moving = ((num_bytes >= 0) & (src != dst)).nonzero()[0]\n",
        (ONE_PASS,),
    ),
    Mutant(
        "the profile starts at the last record",
        TRACE,
        "float(timestamp.min())\n",
        "float(timestamp[-1])\n",
        (ONE_PASS,),
    ),
    Mutant(
        "a pair's bytes are summed in pair order, not record order",
        TRACE,
        "    totals = np.bincount(slot, num_bytes[moving], pair.shape[0])\n",
        "    totals = np.bincount(np.sort(slot), num_bytes[moving][slot.argsort()], pair.shape[0])\n",
        (ONE_PASS,),
    ),
    Mutant(
        "the matrix lists its pairs in id order, not by their first record",
        TRACE,
        "    seen = first.argsort()\n",
        "    seen = np.arange(first.shape[0])\n",
        (ONE_PASS,),
    ),
    Mutant(
        "a run of placed transfers counts its colocated ones",
        "src/repro/core/rate_model.py",
        "        crossing = src.compress(src != dst)\n",
        "        crossing = src\n",
        (GREEDY_RUNS,),
    ),
    # ------------------------------------------------- the segment log
    Mutant(
        "the scalar loop logs each rate x 1.01",
        FLUID,
        "log.append((active[fid], seg_start, now, old))",
        "log.append((active[fid], seg_start, now, old * 1.01))",
        (TRUTH,),
    ),
    Mutant(
        "the vector loop logs each rate x 1.01",
        FLUID,
        "            log.append(flow_at[at], opened, now, at_rate)\n",
        "            log.append(flow_at[at], opened, now, at_rate * 1.01)\n",
        (TRUTH,),
    ),
    Mutant(
        "the vector loop logs each segment's end 1 ms late",
        FLUID,
        "            log.append(flow_at[at], opened, now, at_rate)\n",
        "            log.append(flow_at[at], opened, now + 1e-3, at_rate)\n",
        (TRUTH,),
    ),
    # ------------------------------------------------- the lazy rule
    Mutant(
        "the vector loop's bytes left use the new rate instead of the old",
        FLUID,
        "                left = bits_left(at, opened, old_rate)\n",
        "                left = bits_left(at, opened, new_rate)\n",
        (TRUTH,),
    ),
    Mutant(
        "the scalar loop's bytes left use the new rate instead of the old",
        FLUID,
        "                        left = left - (now - seg_start) * old\n",
        "                        left = left - (now - seg_start) * rate\n",
        (TRUTH,),
    ),
    Mutant(
        "the vector loop keeps a flow's finish when its rate changes",
        FLUID,
        "                finish[at] = np.add(over, now, out=over)\n",
        "                finish[at] = np.where(old_rate == -1.0, over + now, finish[at])\n",
        (LINKLESS, TRUTH),
    ),
    Mutant(
        "the vector loop's finish drops the byte tolerance",
        FLUID,
        "                over = np.subtract(left, _BIT_EPS)\n",
        "                over = np.subtract(left, 0.0)\n",
        (EPS_FOLD, TRUTH),
    ),
    Mutant(
        "a retiring flow reports its residue",
        FLUID,
        "                    remaining[fid] = 0.0\n",
        "                    remaining[fid] = max(\n"
        "                        bits[fid] - (now - open_start[fid]) * open_rate[fid], 0.0\n"
        "                    ) / BITS_PER_BYTE\n",
        (LINKLESS, TRUTH),
    ),
    Mutant(
        "the timeline table sorts its log unstably",
        FLUID,
        'keep = keep[np.argsort(flow[keep], kind="stable")]',
        'keep = keep[np.argsort(flow[keep], kind="quicksort")]',
        (TRUTH,),
    ),
    # ------------------------------------------ the allocator's membership
    Mutant(
        "remove_flow empties a link that keeps a member",
        ALLOC,
        "            left = count[index] - 1\n            count[index] = left\n",
        "            left = count[index] - 1\n            count[index] = left if left != 1 else 0\n",
        (MEMBERSHIP,),
    ),
    Mutant(
        "remove_flow leaves the moved member's _row_pos",
        ALLOC,
        "                    row_pos[row_start[moved] + moved_k] = i\n",
        "                    pass\n",
        (MEMBERSHIP,),
    ),
    Mutant(
        "_leave_batch fills the holes unsorted",
        ALLOC,
        "holes, hole_index = at[hole][order], index[hole][order]",
        "holes, hole_index = at[hole], index[hole]",
        (MEMBERSHIP,),
    ),
    Mutant(
        "a trimmed segment keeps fewer entries than its members",
        ALLOC,
        "np.minimum(self._seg_cap[links], np.maximum(4, 2 * counts))",
        "np.minimum(self._seg_cap[links], np.maximum(1, counts // 2))",
        (MEMBERSHIP,),
    ),
    Mutant(
        "a batch join writes no _row_pos",
        ALLOC,
        "        self._row_pos[by_link] = at\n",
        "",
        (MEMBERSHIP,),
    ),
    Mutant(
        "a batch join's _store_k is off by one",
        ALLOC,
        "        self._store_k[at] = owner_sorted\n",
        "        self._store_k[at] = owner_sorted + 1\n",
        (MEMBERSHIP,),
    ),
    Mutant(
        "a released store keeps its segments' caps",
        ALLOC,
        "            self._seg_cap.fill(0)\n            self._store = np.zeros(0, dtype=np.intp)\n",
        "            self._store = np.zeros(0, dtype=np.intp)\n",
        ("tests/test_alloc_resume.py::test_random_edit_sequences_stay_bit_identical",),
    ),
    # ------------------------------------------------ the binding path
    Mutant(
        "the isolation check is skipped",
        ALLOC,
        "        if int(self._link_count[in_b].sum()) != routed:\n",
        "        if False:\n",
        (
            BINDING + "test_a_member_that_crosses_two_binding_links_refuses",
            BINDING + "test_random_hosed_trees_solve_like_a_fresh_allocator",
        ),
    ),
    Mutant(
        "the closed form divides by the old count",
        ALLOC,
        "            new = capacity[link] / n\n",
        "            new = capacity[link] / (n + 1)\n",
        (BINDING + "test_a_fabric_link_whose_slack_runs_out_refuses",),
    ),
    Mutant(
        "a removal credits its rate twice",
        ALLOC,
        "                    headroom[index] += rate\n",
        "                    headroom[index] += 2 * rate\n",
        (BINDING + "test_a_fabric_link_whose_slack_runs_out_refuses",),
    ),
    Mutant(
        "a refused binding solve keeps the stale rates",
        ALLOC,
        "        if binding is not None:\n            written = binding\n",
        "        if self._bind is not None:\n            written = binding\n",
        (
            BINDING + "test_a_fabric_link_whose_slack_runs_out_refuses",
            BINDING + "test_a_member_that_crosses_two_binding_links_refuses",
        ),
    ),
    Mutant(
        "the full scalar solve leaves no fill to build B from",
        ALLOC,
        "                    self._bind_fill = self._filled(self._solve_scalar())\n",
        "                    self._solve_scalar()\n",
        (
            BINDING + "test_an_add_or_a_capacity_change_voids_b",
            BINDING + "test_random_hosed_trees_solve_like_a_fresh_allocator",
        ),
    ),
    Mutant(
        "the full vector solve leaves no fill to build B from",
        ALLOC,
        "        self._bind_fill = used, capacity, remaining\n",
        "",
        (BINDING + "test_rack_local_meshes_in_waves_take_full_solves_only_after_adds",),
    ),
    Mutant(
        "a removal marks none of its links dirty",
        ALLOC,
        "                self._dirty_links.add(link_of[slot])\n",
        "                pass\n",
        (BINDING + "test_a_fabric_link_whose_slack_runs_out_refuses",),
    ),
    Mutant(
        # Equivalent in rates (slack only under-counted: more refusals, each
        # an exact solve); the counter pins see the refusal it adds.
        "a removal credits no slack",
        ALLOC,
        "                    headroom[index] += rate\n",
        "                    headroom[index] += 0.0 * rate\n",
        (BINDING + "test_a_fabric_link_whose_slack_runs_out_refuses",),
    ),
    Mutant(
        "the hose-safe test drops its margin",
        ALLOC,
        "        limit = (1.0 - _BIND_EPS) * cap\n",
        "        limit = cap\n",
        (BINDING + "test_a_fabric_link_at_the_hoses_sum_is_safe_just_above_it",),
    ),
    Mutant(
        # Equivalent in rates (a count only over-counted: larger debits,
        # more refusals); the recount and the counter pins see it.
        "a removal does not decrement its counts",
        ALLOC,
        "                    pair_count[pair] -= 1\n",
        "                    pass\n",
        (
            BINDING + "test_random_hosed_trees_solve_like_a_fresh_allocator",
            BINDING + "test_a_fabric_link_whose_slack_runs_out_refuses",
        ),
    ),
    Mutant(
        "a batched removal decrements no counts",
        ALLOC,
        "                    np.subtract.at(bound.pair_count, pairs[kept], 1)\n",
        "",
        (BINDING + "test_random_hosed_trees_solve_like_a_fresh_allocator",),
    ),
    Mutant(
        "the debit is new * m instead of delta * m",
        ALLOC,
        "left = headroom[at] - (new - slot_rate.item(members[0])) * pair_count[a:b]",
        "left = headroom[at] - new * pair_count[a:b]",
        (BINDING + "test_a_fabric_link_whose_slack_runs_out_refuses",),
    ),
    Mutant(
        "a removal credits the links it should not and not the kept ones",
        ALLOC,
        "                if pair >= 0:  # (a kept link: credit it, count one member less)\n",
        "                if pair < 0:\n",
        (BINDING + "test_a_fabric_link_whose_slack_runs_out_refuses",),
    ),
    Mutant(
        "a linkless removal marks link -1 dirty",
        ALLOC,
        "            if row:\n                self._dirty_links.add(link_of[slot])\n",
        "            if True:\n                self._dirty_links.add(link_of[slot])\n",
        (BINDING + "test_a_linkless_flow_voids_b_when_added_and_is_served_when_removed",),
    ),
    Mutant(
        "the budget gates only the solves that debit",
        ALLOC,
        "        if self._bind_ops > _BIND_EPS * 2.0**51:\n",
        "        if pair_start and self._bind_ops > _BIND_EPS * 2.0**51:\n",
        (BINDING + "test_the_margin_bounds_rounding_and_is_no_knob",),
    ),
    Mutant(
        "the margin is a thousand times too strict",
        ALLOC,
        "_BIND_EPS = 1e-9\n",
        "_BIND_EPS = 1e-6\n",
        (),
        equivalent=(
            "a wider margin only puts more links in B and certifies fewer: "
            "every extra refusal falls back to an exact solve, so no rate "
            "moves, and 1e-6 still leaves every slack a test pins (>= 5 % of "
            "its link) certified and the budget of rounding steps at 2**51 "
            "x 1e-6, far above any run"
        ),
    ),
    # ------------------------------------------------------ invariants
    Mutant(
        "the bottleneck check forgives a rate 5 % below the fastest",
        "src/repro/net/fairness.py",
        "and rate >= fastest[link_id] * (1.0 - rel_tol)",
        "and rate >= fastest[link_id] * (1.0 - 0.05)",
        ("tests/test_snapshot_invariants.py::test_a_flow_a_hair_below_its_bottleneck_has_none",),
    ),
    Mutant(
        "report_violations accepts a completion 1 s before its arrival",
        ENGINE,
        "not app.completed_at >= app.arrived_at:",
        "not app.completed_at >= app.arrived_at - 1.0:",
        ("tests/test_service.py::test_report_violations_names_each_broken_rule",),
    ),
    Mutant(
        "netperf's probe ignores a wild factor",
        PROVIDER,
        "        return float(factor[0])\n",
        "        return 1.0\n",
        ("tests/test_faults.py::test_netperf_reads_its_one_probe_off_probe_faults",),
    ),
    # ------------------------------------------------------- the service
    Mutant(
        "migration needs a gain above 0.12",
        MIGRATION,
        "IMPROVEMENT_THRESHOLD = 0.1\n",
        "IMPROVEMENT_THRESHOLD = 0.12\n",
        ("tests/test_obs.py::test_traced_churn_session_says_why_it_did_not_migrate",),
    ),
    Mutant(
        "a gain of exactly the threshold migrates",
        MIGRATION,
        "gain <= IMPROVEMENT_THRESHOLD:",
        "gain < IMPROVEMENT_THRESHOLD:",
        ("tests/test_service.py::test_a_gain_of_exactly_the_threshold_does_not_migrate",),
    ),
    Mutant(
        "a pair exactly ttl_s old is stale",
        CACHE,
        "fresh = now - self._measured_at <= self.ttl_s",
        "fresh = now - self._measured_at < self.ttl_s",
        ("tests/test_admission_arrays.py::TestCacheAgainstDictCache::test_exact_ttl_boundary_is_still_fresh",),
    ),
    Mutant(
        "a degraded pair with no rate takes 2 bit/s",
        CACHE,
        "DEGRADED_FLOOR_BPS = 1.0\n",
        "DEGRADED_FLOOR_BPS = 2.0\n",
        (),
        equivalent=(
            "the floor only has to sit below every measured rate (>= 10^6 bit/s "
            "here); greedy ranks candidates by rate, so doubling every floored "
            "pair keeps each below every measured one and floored ties tied, and "
            "a migration estimate dominated by a floored pair scales on both "
            "sides of its gain ratio"
        ),
    ),
    # ------------------------------------------------ the other tenant
    Mutant(
        "the bootstrap campaign sees no background",
        ENGINE,
        "            self.cache.refresh(\n"
        "                now, background=network.campaign_background(running, now)\n"
        "            )\n"
        "            placement_wall += time.perf_counter() - place_started\n"
        "\n"
        "        pending, spent",
        "            self.cache.refresh(now)\n"
        "            placement_wall += time.perf_counter() - place_started\n"
        "\n"
        "        pending, spent",
        (OTHER_TENANT,),
    ),
    Mutant(
        "a campaign sees the other tenant's flows before they start",
        MIGRATION,
        "*(flow for flow in self.other.values() if flow.start_time <= now),",
        "*self.other.values(),",
        (OTHER_TENANT,),
    ),
    Mutant(
        "the other tenant's finished flows are kept",
        MIGRATION,
        "        if flow_id in completion:\n            del other[flow_id]\n",
        "        if flow_id in completion:\n            continue\n",
        (OTHER_TENANT,),
    ),
    Mutant(
        "the other tenant's sizes are never debited",
        MIGRATION,
        "other[flow_id] = replace(other[flow_id], size_bytes=left[flow_id])",
        "other[flow_id] = other[flow_id]",
        (OTHER_TENANT,),
    ),
    Mutant(
        "the other tenant's sender hoses are never pushed",
        MIGRATION,
        "flow.src for flow in network.other.values()",
        "flow.src for flow in ()",
        ("tests/test_live_network.py::test_the_other_tenants_flow_runs_on_the_hoses_of_each_segment",),
    ),
    Mutant(
        "a session stops early with faults still to come",
        ENGINE,
        "if not (pending or have_faults or target < horizon - 1e-9)",
        "if not (pending or target < horizon - 1e-9)",
        ("tests/test_faults.py::test_preemption_mid_session_recovers_or_rejects",),
    ),
    # ---------------------------------------- the executor on the live engine
    Mutant(
        "run_applications admits every application at the first start time",
        EXECUTOR,
        "        arrivals.setdefault(app.start_time, []).append(app)\n",
        "        arrivals.setdefault(min(a.start_time for a in apps), []).append(app)\n",
        (FRESH_RUN,),
    ),
    Mutant(
        "live_flows gives a flow an id flow_ids() does not",
        MIGRATION,
        '                    flow_id=f"{name}:{index}",\n',
        '                    flow_id=f"{name}:{index + 1}",\n',
        (FRESH_RUN,),
    ),
    Mutant(
        "run_applications books colocated bytes as network bytes",
        EXECUTOR,
        "        colocated_bytes=colocated_bytes,\n"
        "        network_bytes=network_bytes,\n",
        "        colocated_bytes=0.0,\n"
        "        network_bytes=network_bytes + colocated_bytes,\n",
        (FRESH_RUN,),
    ),
    # ---------------------------------------------------- the metric totals
    Mutant(
        "Counter.inc skips the name's total",
        METRICS,
        "        self._total.value += amount\n",
        "        pass\n",
        (
            "tests/test_obs.py::"
            "test_a_collected_allocators_counts_stay_and_allocators_add_no_entry",
            "tests/test_obs.py::test_metrics_snapshot_matches_legacy_stats_views",
        ),
    ),
    # ------------------------------------------------ the links in lockstep
    Mutant(
        "the lockstep re-rates a link's survivors at C / (n + 1)",
        FLUID,
        "        np.divide(capacity[group], left_n, out=new, where=left_n > 0)\n",
        "        np.divide(capacity[group], left_n + 1, out=new, where=left_n > 0)\n",
        (
            LOCKSTEP + "test_until_mid_lockstep_then_resume",
            WORK + "test_the_lockstep_takes_a_step_per_member_of_a_link",
        ),
    ),
    Mutant(
        "the allocator leaves the lockstep's survivors at C / (n + 1)",
        ALLOC,
        "        np.divide(self._capacities()[part_link], n_after, out=new, where=n_after > 0)\n",
        "        np.divide(self._capacities()[part_link], n_after + 1, out=new,"
        " where=n_after > 0)\n",
        (LOCKSTEP + "test_until_mid_lockstep_then_resume",),
    ),
    Mutant(
        "two links' completions within _TIME_EPS but not at one instant are no hazard",
        FLUID,
        "    bad[1:] |= ~apart[1:] & (times[1:] != times[:-1])\n",
        "    bad[1:] |= False\n",
        (LOCKSTEP + "test_two_links_completing_within_the_time_eps_are_one_event",),
    ),
    Mutant(
        "links completing at one instant are solved in index order, not the dirty set's",
        ALLOC,
        "                e: list(set(link_of[first[e] : first[e] + counts[e]].tolist()))\n",
        "                e: sorted(set(link_of[first[e] : first[e] + counts[e]].tolist()))\n",
        (LOCKSTEP + "test_links_completing_at_one_instant_are_one_event_in_lockstep",),
    ),
    Mutant(
        "links completing at one instant are a hazard",
        FLUID,
        "    bad[1:] |= ~apart[1:] & (times[1:] != times[:-1])\n",
        "    bad[1:] |= ~apart[1:]\n",
        (LOCKSTEP + "test_links_completing_at_one_instant_are_one_event_in_lockstep",),
    ),
    Mutant(
        "the lockstep skips every kept-link debit",
        ALLOC,
        "            debit = -(delta[pa:pb, None]"
        " * (members[d_index[part_link[pa:pb]]] - count))\n",
        "            debit = 0.0 * count\n",
        (LOCKSTEP + "test_a_kept_link_whose_headroom_runs_out_is_refused_mid_run",),
    ),
    Mutant(
        "the lockstep's budget forgets the removals' ops",
        ALLOC,
        "        bind_ops = self._bind_ops + np.cumsum(removed + debited)\n",
        "        bind_ops = self._bind_ops + np.cumsum(debited)\n",
        (LOCKSTEP + "test_bind_ops_over_budget_is_refused_mid_run",),
    ),
    Mutant(
        "the lockstep counts a batch for the solve after the run's last completion",
        FLUID,
        "            batches += events - (final and events == n_events)\n",
        "            batches += events\n",
        (WORK + "test_the_lockstep_takes_a_step_per_member_of_a_link",),
    ),
    # ---------------------------------------------- slots, not flow ids
    Mutant(
        "remove_flow frees a slot without the live-slot check",
        ALLOC,
        "        if not (0 <= slot < self._n_slots and live[slot]):\n",
        "        if False:\n",
        ("tests/test_flow_table.py::test_batched_edits_reject_a_bad_batch_whole",),
    ),
    Mutant(
        "remove_flows lets a slot repeat in a batch",
        ALLOC,
        "        if (ordered[1:] == ordered[:-1]).any():\n",
        "        if False:\n",
        ("tests/test_flow_table.py::test_batched_edits_reject_a_bad_batch_whole",),
    ),
    Mutant(
        "the scalar loop keeps reading a retired flow's freed slot",
        FLUID,
        "                    incremental.remove_flow(slot_of.pop(fid))\n",
        "                    incremental.remove_flow(slot_of[fid])\n",
        ("tests/test_fluid.py::test_departing_flow_releases_bandwidth_to_survivor", TRUTH),
    ),
    Mutant(
        "a withdrawal leaves its flows' slots in the allocator",
        FLUID,
        "        if active:\n            self._allocator.remove_flows(active)\n",
        "        if False:\n            self._allocator.remove_flows(active)\n",
        (
            "tests/test_fluid.py::"
            "test_a_resumed_run_reports_what_a_fresh_simulation_from_the_pause_would",
        ),
    ),
    Mutant(
        "a pair's bytes before a run are read after the run wrote them",
        MIGRATION,
        "            network.sent[key] = network.sent.get(key, 0.0) + (state.remaining[pair] - after)\n"
        "            state.remaining[pair] = after\n",
        "            state.remaining[pair] = after\n"
        "            network.sent[key] = network.sent.get(key, 0.0) + (state.remaining[pair] - after)\n",
        ("tests/test_live_books.py::test_books_balance_at_every_cut_of_the_golden_sessions",),
    ),
    Mutant(
        "netperf's mean is the fill's rate, not its segment's average",
        PROVIDER,
        "        return ((0.0 + allocator.solve_slots()[slots] * duration) / duration).tolist()\n",
        "        return allocator.solve_slots()[slots].tolist()\n",
        ("tests/test_netperf.py::test_netperf_numbers_are_pinned",),
    ),
    # ------------------------------------------------- one round per level
    Mutant(
        "the array fill freezes only the first link at the level",
        ALLOC,
        "            tied = used[(shares == level).nonzero()[0]]\n",
        "            tied = used[(shares == level).nonzero()[0][:1]]\n",
        (
            BINDING + "test_a_link_saturated_at_a_tie_is_in_b",
            RELABEL,
        ),
    ),
    Mutant(
        "the array fill's union keeps a flow twice",
        ALLOC,
        "            if tied.shape[0] > 1:\n                batch = _distinct(batch)\n",
        "",
        (
            "tests/test_alloc_resume.py::test_replay_corner_cases_match_a_fresh_fill",
            RELABEL,
        ),
    ),
    Mutant(
        "the probe fill's union keeps a flow twice",
        "src/repro/net/fairness.py",
        "        if tied.shape[0] > 1:\n            batch = _distinct(batch)\n",
        "",
        ("tests/test_snapshot_invariants.py::test_a_worked_example", RELABEL),
    ),
    Mutant(
        "the heap fill stops its tie scan after the first link",
        ALLOC,
        "                        elif key != level:\n                            break\n",
        "                        else:\n                            break\n",
        (RELABEL, ONE_RULE),
    ),
    Mutant(
        "a probe at the level waits for the next round",
        "src/repro/net/fairness.py",
        "            freeze = best <= level\n",
        "            freeze = best < level\n",
        (RELABEL,),
    ),
    # ------------------------------------------------- the §6.1 analysis
    Mutant(
        "predict averages with np.mean",
        "src/repro/workloads/predictability.py",
        "    total = values[0]\n"
        "    for value in values[1:]:\n"
        "        total = total + value\n"
        "    return total / len(values)\n",
        "    return np.mean(values)\n",
        ("tests/test_predictability.py::TestPredictorFunctions::test_every_prefix_equals_the_scalar_predictors",),
    ),
)
