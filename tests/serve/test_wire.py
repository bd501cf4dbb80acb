"""Wire-schema tests: validation, error shapes, deterministic bodies."""

import json

import pytest

from repro.serve.wire import (
    MAX_P,
    ServeError,
    encode_body,
    success_body,
    validate_request,
)


class TestValidateRequest:
    def test_minimal_request_fills_defaults(self):
        req = validate_request({"model": "alexnet", "p": 8})
        assert req.task.model == "alexnet"
        assert req.task.p == 8
        assert req.task.machine == "1080ti"
        assert req.task.mode == "pow2"
        assert req.task.method == "ours"
        assert req.task.seed == 0
        assert req.deadline is None and req.degrade is False

    def test_full_request(self):
        req = validate_request({
            "model": "transformer", "p": 32, "machine": "1080ti",
            "mode": "divisors", "method": "ours", "seed": 3,
            "reduce": "auto", "resilient": True,
            "memory_budget": 1 << 28, "deadline": 12.5, "degrade": True})
        assert req.task.reduce == "auto" and req.task.resilient
        assert req.deadline == 12.5 and req.degrade

    def test_non_object_body_rejected(self):
        with pytest.raises(ServeError) as exc:
            validate_request([1, 2, 3])
        assert exc.value.status == 400

    def test_collects_every_error_at_once(self):
        with pytest.raises(ServeError) as exc:
            validate_request({"p": "four", "bogus": 1, "seed": "zero"})
        fields = {e["field"] for e in exc.value.errors}
        assert fields == {"model", "p", "bogus", "seed"}
        assert exc.value.status == 400
        assert exc.value.kind == "invalid-request"

    def test_bool_does_not_pass_as_int(self):
        with pytest.raises(ServeError) as exc:
            validate_request({"model": "alexnet", "p": True})
        assert any(e["field"] == "p" for e in exc.value.errors)

    def test_null_passes_only_where_the_default_is_none(self):
        for field in ("p", "seed"):
            with pytest.raises(ServeError) as exc:
                validate_request({"model": "alexnet", "p": 8, field: None})
            assert exc.value.status == 400
            assert exc.value.errors == [{"field": field,
                                         "message": "expected int"}]
        req = validate_request({"model": "alexnet", "p": 8,
                                "memory_budget": None, "deadline": None,
                                "chaos": None})
        assert req.task.memory_budget is None and req.deadline is None

    def test_sweep_only_fields_stay_unknown(self):
        with pytest.raises(ServeError) as exc:
            validate_request({"model": "alexnet", "p": 8,
                              "objective": "frontier", "faults": {},
                              "faults_name": "x"})
        assert {e["field"] for e in exc.value.errors} == \
            {"objective", "faults", "faults_name"}
        assert all(e["message"] == "unknown field" for e in exc.value.errors)

    def test_unknown_model_rejected_by_task_validation(self):
        with pytest.raises(ServeError) as exc:
            validate_request({"model": "resnet9000", "p": 8})
        assert exc.value.status == 400

    def test_p_capped(self):
        with pytest.raises(ServeError) as exc:
            validate_request({"model": "alexnet", "p": MAX_P * 2})
        assert any(e["field"] == "p" for e in exc.value.errors)

    def test_bad_reduce_spelling(self):
        with pytest.raises(ServeError) as exc:
            validate_request({"model": "alexnet", "p": 8,
                              "reduce": "sometimes"})
        assert any(e["field"] == "reduce" for e in exc.value.errors)

    @pytest.mark.parametrize("reduce", [True, False, "off", "never",
                                        "auto", "always"])
    def test_good_reduce_spellings(self, reduce):
        req = validate_request({"model": "alexnet", "p": 8,
                                "reduce": reduce})
        assert req.task.reduce == reduce

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ServeError) as exc:
            validate_request({"model": "alexnet", "p": 8, "deadline": 0})
        assert any(e["field"] == "deadline" for e in exc.value.errors)

    def test_max_deadline_caps_and_defaults(self):
        req = validate_request({"model": "alexnet", "p": 8,
                                "deadline": 100.0}, max_deadline=10.0)
        assert req.deadline == 10.0
        req = validate_request({"model": "alexnet", "p": 8},
                               max_deadline=10.0)
        assert req.deadline == 10.0

    def test_chaos_gated_behind_allow_chaos(self):
        doc = {"model": "alexnet", "p": 8, "chaos": {"kind": "exit"}}
        with pytest.raises(ServeError) as exc:
            validate_request(doc)
        assert any(e["field"] == "chaos" for e in exc.value.errors)
        req = validate_request(doc, allow_chaos=True)
        assert req.task.chaos == {"kind": "exit"}


class TestBodies:
    def test_error_body_shape(self):
        err = ServeError(429, "queue-full", "try later", retry_after=2.5,
                         detail={"x": 1})
        body = err.body()
        assert body["error"]["kind"] == "queue-full"
        assert body["error"]["retry_after"] == 2.5
        assert body["error"]["detail"] == {"x": 1}

    def test_success_body_and_encoding_deterministic(self):
        rec = {"cost": 1.0, "task_id": "abc"}
        a = encode_body(success_body("fp", rec, cached=True,
                                     coalesced=False, attempts=0))
        b = encode_body(success_body("fp", dict(rec), cached=True,
                                     coalesced=False, attempts=0))
        assert a == b and a.endswith(b"\n")
        doc = json.loads(a)
        assert doc["served"] == {"cached": True, "coalesced": False,
                                 "attempts": 0, "degraded": False}
