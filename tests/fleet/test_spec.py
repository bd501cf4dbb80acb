"""Sweep-spec expansion: deterministic, validated, loudly rejected."""

import json

import pytest

from repro.fleet import SPEC_VERSION, SweepSpec, SweepSpecError, SweepTask


def small_spec(**overrides):
    base = dict(models=["alexnet"], ps=[2, 4],
                methods=["ours", "data_parallel"])
    base.update(overrides)
    return SweepSpec.from_dict(base)


class TestExpansion:
    def test_grid_size_is_the_cross_product(self):
        assert len(small_spec().expand()) == 4

    def test_expansion_order_is_deterministic(self):
        a = [t.task_id for t in small_spec().expand()]
        b = [t.task_id for t in small_spec().expand()]
        assert a == b

    def test_grid_order_follows_field_order(self):
        tasks = small_spec().expand()
        # ps is an outer axis relative to methods.
        assert [(t.p, t.method) for t in tasks] == [
            (2, "ours"), (2, "data_parallel"),
            (4, "ours"), (4, "data_parallel")]

    def test_explicit_tasks_append_after_the_grid(self):
        spec = small_spec(tasks=[{"model": "rnnlm", "p": 4}])
        tasks = spec.expand()
        assert len(tasks) == 5
        assert tasks[-1].model == "rnnlm"

    def test_fault_plans_expand_with_names(self):
        plan = {"name": "slow2", "plan": {
            "stragglers": [{"device": 0, "slowdown": 2.0}]}}
        spec = small_spec(fault_plans=[None, plan])
        tasks = spec.expand()
        assert len(tasks) == 8
        named = [t for t in tasks if t.faults is not None]
        assert len(named) == 4
        assert all(t.faults_name == "slow2" for t in named)

    def test_zero_tasks_rejected(self):
        with pytest.raises(SweepSpecError, match="zero tasks"):
            SweepSpec.from_dict({"models": []}).expand()

    def test_duplicate_tasks_rejected(self):
        spec = small_spec(tasks=[{"model": "alexnet", "p": 2}])
        with pytest.raises(SweepSpecError, match="duplicate"):
            spec.expand()

    def test_malformed_fault_plan_entry_rejected(self):
        spec = small_spec(fault_plans=[{"oops": True}])
        with pytest.raises(SweepSpecError, match="fault_plans"):
            spec.expand()


class TestValidation:
    @pytest.mark.parametrize("field,value,match", [
        ("models", ["lenet"], "unknown model"),
        ("machines", ["tpu"], "unknown machine"),
        ("ps", [0], "must be >= 1"),
        ("modes", ["weird"], "unknown mode"),
        ("methods", ["magic"], "unknown method"),
        ("ps", ["x"], "expected int"),
        ("ps", [8.7], "expected int"),
        ("ps", [True], "expected int"),
    ])
    def test_bad_axis_values_rejected(self, field, value, match):
        with pytest.raises(SweepSpecError, match=match):
            small_spec(**{field: value}).expand()

    def test_reduce_axis_keeps_its_spelling(self):
        tasks = small_spec(methods=["ours"], reduce=["off", "always"]).expand()
        assert [t.reduce for t in tasks] == ["off", "always"] * 2

    @pytest.mark.parametrize("extra,match", [
        ({"p": "4"}, "p: expected int"),
        ({"memory_budget": "big"}, "memory_budget: expected int"),
        ({"reduce": "bogus"}, "reduce: expected a bool or one of"),
        ({"seed": "0"}, "seed: expected int"),
        ({"seed": None}, "seed: expected int"),
    ])
    def test_explicit_task_types_rejected(self, extra, match):
        spec = small_spec(tasks=[{"model": "rnnlm", **extra}])
        with pytest.raises(SweepSpecError, match=match):
            spec.expand()

    def test_every_task_problem_listed_at_once(self):
        with pytest.raises(SweepSpecError) as exc:
            SweepTask.from_dict({"p": True, "seed": "0", "gpu": 9})
        for part in ("gpu: unknown field", "model: required",
                     "p: expected int", "seed: expected int"):
            assert part in str(exc.value)

    def test_bad_chaos_kind_rejected(self):
        spec = small_spec(
            tasks=[{"model": "rnnlm", "chaos": {"kind": "dance"}}])
        with pytest.raises(SweepSpecError, match="chaos kind"):
            spec.expand()

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(SweepSpecError, match="unknown field"):
            SweepSpec.from_dict({"models": ["alexnet"], "colour": "red"})

    def test_unknown_task_field_rejected(self):
        with pytest.raises(SweepSpecError, match="unknown field"):
            SweepTask.from_dict({"model": "alexnet", "gpu": 9})

    def test_non_object_task_rejected(self):
        with pytest.raises(SweepSpecError, match="must be an object"):
            small_spec(tasks=[5]).expand()

    def test_future_version_rejected(self):
        with pytest.raises(SweepSpecError, match="version"):
            SweepSpec.from_dict({"version": SPEC_VERSION + 1,
                                 "models": ["alexnet"]})


class TestIdentity:
    def test_task_id_is_stable_and_content_addressed(self):
        a = SweepTask(model="alexnet", p=4)
        b = SweepTask(model="alexnet", p=4)
        c = SweepTask(model="alexnet", p=8)
        assert a.task_id == b.task_id
        assert a.task_id != c.task_id

    def test_task_ids_are_pinned(self):
        """Result records, manifest slots and task directories are keyed
        on these ids, so they must never drift."""
        assert SweepTask(model="alexnet", p=4).task_id == "3c168db218b675a6"
        assert SweepTask(model="alexnet", p=4, objective="frontier") \
            .task_id == "7485b08421006ba8"
        assert SweepTask(model="rnnlm", p=8, reduce=True,
                         chaos={"kind": "exit", "attempts": 1}) \
            .task_id == "3d07bf616975d590"
        assert small_spec().fingerprint() == (
            "91cd35fea249b89cd2e5ae47f0b0c109"
            "4f4cff9003bd25e06de6ba8172b257c7")

    def test_chaos_participates_in_the_task_id(self):
        plain = SweepTask(model="alexnet")
        chaotic = SweepTask(model="alexnet", chaos={"kind": "raise"})
        assert plain.task_id != chaotic.task_id

    def test_fingerprint_pins_the_whole_spec(self):
        assert small_spec().fingerprint() == small_spec().fingerprint()
        assert small_spec().fingerprint() != \
            small_spec(seeds=[1]).fingerprint()

    def test_roundtrips_through_json(self):
        spec = small_spec(fault_plans=[None])
        again = SweepSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert again.fingerprint() == spec.fingerprint()


class TestObjectiveAxis:
    def test_objective_axis_expands(self):
        spec = small_spec(methods=["ours"],
                          objectives=["cost", "frontier"])
        tasks = spec.expand()
        assert len(tasks) == 4
        assert sorted({t.objective for t in tasks}) == ["cost", "frontier"]

    def test_default_objective_omitted_from_task_dict(self):
        """Pre-frontier task ids must not churn: a default-objective task
        serializes without the field, so journal directories and
        manifest slots keyed on the id stay valid across resumes."""
        task = SweepTask(model="alexnet", p=4)
        assert "objective" not in task.to_dict()
        assert task.task_id == \
            SweepTask(model="alexnet", p=4, objective="cost").task_id

    def test_frontier_objective_changes_task_id_and_label(self):
        plain = SweepTask(model="alexnet")
        frontier = SweepTask(model="alexnet", objective="frontier")
        assert plain.task_id != frontier.task_id
        assert "frontier" in frontier.label
        assert "frontier" not in plain.label

    def test_default_objectives_axis_omitted_from_spec_dict(self):
        spec = small_spec()
        assert "objectives" not in spec.to_dict()
        assert spec.fingerprint() == \
            small_spec(objectives=["cost"]).fingerprint()
        assert spec.fingerprint() != \
            small_spec(methods=["ours"],
                       objectives=["cost", "frontier"]).fingerprint()

    def test_bad_objective_rejected(self):
        with pytest.raises(SweepSpecError, match="objective"):
            small_spec(methods=["ours"], objectives=["speed"]).expand()

    def test_frontier_requires_ours(self):
        spec = small_spec(objectives=["frontier"])  # includes data_parallel
        with pytest.raises(SweepSpecError, match="requires method 'ours'"):
            spec.expand()

    def test_eps_objective_round_trips(self):
        spec = small_spec(methods=["ours"],
                          objectives=["frontier:eps=0.1"])
        tasks = spec.expand()
        assert all(t.objective == "frontier:eps=0.1" for t in tasks)
        again = SweepSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert again.fingerprint() == spec.fingerprint()


class TestFromFile:
    def test_reads_a_spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"models": ["alexnet"], "ps": [2]}))
        assert len(SweepSpec.from_file(path).expand()) == 1

    def test_missing_file_is_a_spec_error(self, tmp_path):
        with pytest.raises(SweepSpecError, match="cannot read"):
            SweepSpec.from_file(tmp_path / "nope.json")

    def test_invalid_json_is_a_spec_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SweepSpecError, match="not valid JSON"):
            SweepSpec.from_file(path)

    def test_non_object_json_is_a_spec_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(SweepSpecError, match="must be an object"):
            SweepSpec.from_file(path)
