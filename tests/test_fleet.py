"""Tests for fleet-scale serving: multi-model routing, hot reload,
auth, per-client rate limiting, and the serve announce line.

The core contracts under test:

* responses routed through ``POST /models/<name>/predict`` are
  bitwise-equal to direct :meth:`PredictionService.submit_many` calls
  against that model,
* ``PUT /models/<name>`` swaps atomically and ``DELETE`` drains, with
  the LRU bound evicting only non-default models,
* auth rejections (401/403) happen before any model work and bearer
  tokens never appear in ``/stats`` or other payloads,
* one client exhausting its rate-limit bucket answers 429 +
  ``Retry-After`` while other clients keep being served bitwise.
"""

from __future__ import annotations

import http.client
import json
import os
from pathlib import Path

import pytest

import repro.api as api
from repro.serving import (
    AuthError,
    Authenticator,
    GatewayThread,
    ModelFleet,
    RateLimitedError,
    RateLimiter,
)
from repro.serving import wire
from repro.serving.auth import client_digest
from repro.serving.fleet import (
    FleetError,
    format_announce,
    parse_announce,
    validate_model_name,
)


DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def mcpat_model(flow):
    return api.fit("mcpat", flow=flow)


@pytest.fixture(scope="module")
def request_objs(flow, test_configs, workloads):
    """Wire-encoded total-power requests (3 configs x 2 workloads)."""
    return [
        wire.encode_request(
            api.PredictRequest(
                config=c, events=flow.run(c, w).events, workload=w
            )
        )
        for c in test_configs[:3]
        for w in workloads[:2]
    ]


def _expected_totals(model, request_objs):
    """Ground truth: direct service calls for the same wire requests."""
    service = api.PredictionService(model)
    responses = service.submit_many(
        [wire.decode_request(obj) for obj in request_objs]
    )
    return [float(r.total) for r in responses]


def _http(port, method, path, payload=None, token=None):
    """One HTTP round trip; returns (status, headers, decoded body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    headers = {"Content-Type": "application/json"}
    if token is not None:
        headers["Authorization"] = token
    body = None if payload is None else json.dumps(payload)
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    conn.close()
    return (
        response.status,
        {k.lower(): v for k, v in response.getheaders()},
        json.loads(raw.decode("utf-8")),
    )


def _two_model_fleet(autopower2, mcpat_model, **kwargs):
    fleet = ModelFleet(**kwargs)
    fleet.add_model("default", autopower2)
    fleet.add_model("mcpat", mcpat_model)
    return fleet


# ----------------------------------------------------------------------
# Multi-model routing + admin over HTTP.


@pytest.fixture(scope="module")
def fleet_gateway(autopower2, mcpat_model):
    """A read-only two-model gateway (routing tests; no admin mutation)."""
    with GatewayThread(
        _two_model_fleet(autopower2, mcpat_model, max_models=4)
    ) as handle:
        yield handle


class TestModelRouting:
    def test_named_route_is_bitwise_equal_to_direct(
        self, fleet_gateway, mcpat_model, request_objs
    ):
        status, _h, body = _http(
            fleet_gateway.port, "POST", "/models/mcpat/predict", request_objs
        )
        assert status == 200
        assert [r["total"] for r in body] == _expected_totals(
            mcpat_model, request_objs
        )

    def test_legacy_predict_routes_to_default(
        self, fleet_gateway, autopower2, request_objs
    ):
        status, _h, legacy = _http(
            fleet_gateway.port, "POST", "/predict", request_objs
        )
        assert status == 200
        status, _h, named = _http(
            fleet_gateway.port, "POST", "/models/default/predict", request_objs
        )
        assert status == 200
        assert legacy == named
        assert [r["total"] for r in legacy] == _expected_totals(
            autopower2, request_objs
        )

    def test_unknown_model_is_404(self, fleet_gateway, request_objs):
        status, _h, body = _http(
            fleet_gateway.port, "POST", "/models/nope/predict",
            request_objs[:1],
        )
        assert status == 404
        assert "nope" in body["error"]["message"]

    def test_models_listing(self, fleet_gateway):
        status, _h, body = _http(fleet_gateway.port, "GET", "/models")
        assert status == 200
        assert body["default_model"] == "default"
        assert set(body["models"]) == {"default", "mcpat"}
        assert body["models"]["mcpat"]["kinds"] == ["total"]

    def test_single_model_info(self, fleet_gateway):
        status, _h, body = _http(fleet_gateway.port, "GET", "/models/mcpat")
        assert status == 200
        assert body["name"] == "mcpat"
        assert body["generation"] == 1

    def test_healthz_and_stats_carry_fleet_state(self, fleet_gateway):
        status, _h, health = _http(fleet_gateway.port, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert set(health["models"]) == {"default", "mcpat"}
        status, _h, stats = _http(fleet_gateway.port, "GET", "/stats")
        assert status == 200
        # Back-compat top-level blocks stay, the fleet block is new.
        assert set(stats) >= {"service", "gateway", "resilience", "fleet"}
        assert stats["fleet"]["loaded"] == 2
        assert set(stats["fleet"]["models"]) == {"default", "mcpat"}


class TestModelAdmin:
    def test_put_load_route_reload_delete(
        self, autopower2, mcpat_model, request_objs, tmp_path
    ):
        path = tmp_path / "extra.json"
        api.save_model(mcpat_model, path)
        with GatewayThread(
            _two_model_fleet(autopower2, mcpat_model, max_models=4)
        ) as handle:
            status, _h, body = _http(
                handle.port, "PUT", "/models/extra", {"path": str(path)}
            )
            assert status == 200
            assert body["replaced"] is False
            assert body["generation"] == 1
            status, _h, predictions = _http(
                handle.port, "POST", "/models/extra/predict", request_objs
            )
            assert status == 200
            assert [r["total"] for r in predictions] == _expected_totals(
                mcpat_model, request_objs
            )
            # Hot reload: same name again bumps the generation.
            status, _h, body = _http(
                handle.port, "PUT", "/models/extra", {"path": str(path)}
            )
            assert status == 200
            assert body["replaced"] is True
            assert body["generation"] == 2
            # Drain-then-unload; the route 404s afterwards.
            status, _h, body = _http(handle.port, "DELETE", "/models/extra")
            assert status == 200
            assert body["unloaded"] is True
            status, _h, _body = _http(
                handle.port, "POST", "/models/extra/predict", request_objs[:1]
            )
            assert status == 404
            status, _h, _body = _http(handle.port, "DELETE", "/models/extra")
            assert status == 404

    def test_put_envelope_body(self, autopower2, mcpat_model, request_objs):
        envelope = api.model_to_envelope(mcpat_model)
        with GatewayThread(
            _two_model_fleet(autopower2, mcpat_model, max_models=4)
        ) as handle:
            status, _h, body = _http(
                handle.port, "PUT", "/models/inline", envelope
            )
            assert status == 200
            assert body["source"] == "envelope"
            status, _h, predictions = _http(
                handle.port, "POST", "/models/inline/predict", request_objs
            )
            assert status == 200
            assert [r["total"] for r in predictions] == _expected_totals(
                mcpat_model, request_objs
            )

    def test_put_bad_bodies_are_400(self, autopower2, mcpat_model, tmp_path):
        with GatewayThread(
            _two_model_fleet(autopower2, mcpat_model)
        ) as handle:
            for payload in (
                {"path": ""},
                {"nonsense": 1},
                {"path": str(tmp_path / "missing.json")},
                [1, 2],
            ):
                status, _h, body = _http(
                    handle.port, "PUT", "/models/bad", payload
                )
                assert status == 400, payload
                assert "error" in body
            status, _h, body = _http(
                handle.port, "PUT", f"/models/{'x' * 65}", {"path": "x"}
            )
            assert status == 400  # name validated before any load work
            assert "model names" in body["error"]["message"]

    def test_put_malformed_envelopes_are_400_and_keep_the_model(
        self, autopower2, mcpat_model, request_objs
    ):
        saved = json.loads((DATA / "v2_models.json").read_text())
        v2 = saved["models"]["mcpat-calib"]["envelope"]
        v3 = api.model_to_envelope(api.model_from_envelope(v2))

        def tampered(envelope, edit):
            body = json.loads(json.dumps(envelope))
            edit(body)
            return body

        bodies = [
            tampered(v2, lambda b: b.update(state="x")),
            tampered(v2, lambda b: b["state"]["model"].update(params=None)),
            tampered(v2, lambda b: b["state"]["model"].update(trees=5)),
            tampered(v2, lambda b: b.update(method=[])),
            tampered(v3, lambda b: b["state"]["model"].update(left="0")),
        ]
        expected = _expected_totals(autopower2, request_objs)
        with GatewayThread(
            _two_model_fleet(autopower2, mcpat_model)
        ) as handle:
            for body in bodies:
                status, _h, reply = _http(handle.port, "PUT", "/models/default", body)
                assert status == 400, reply
                assert "cannot load model" in reply["error"]["message"]
            status, _h, info = _http(handle.port, "GET", "/models/default")
            assert info["generation"] == 1 and info["method"] == "autopower"
            status, _h, predictions = _http(handle.port, "POST", "/predict", request_objs)
            assert status == 200
            assert [r["total"] for r in predictions] == expected

    def test_deeply_nested_bodies_are_400_and_keep_the_model(
        self, autopower2, mcpat_model, request_objs
    ):
        # Nesting past the JSON parser's recursion limit is a malformed
        # body like any other, on every route that decodes one.
        body = b"[" * 50_000 + b"]" * 50_000
        expected = _expected_totals(autopower2, request_objs)
        with GatewayThread(
            _two_model_fleet(autopower2, mcpat_model)
        ) as handle:
            for method, path in (
                ("POST", "/predict"),
                ("PUT", "/models/default"),
                ("POST", "/dse"),
            ):
                conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
                conn.request(method, path, body=body)
                response = conn.getresponse()
                reply = json.loads(response.read())
                conn.close()
                assert response.status == 400, (path, reply)
                assert reply["error"]["message"] == "request body is not valid JSON"
            status, _h, info = _http(handle.port, "GET", "/models/default")
            assert info["generation"] == 1 and info["method"] == "autopower"
            status, _h, predictions = _http(handle.port, "POST", "/predict", request_objs)
            assert status == 200
            assert [r["total"] for r in predictions] == expected

    def test_lru_eviction_spares_default(
        self, autopower2, mcpat_model, request_objs, tmp_path
    ):
        path = tmp_path / "m.json"
        api.save_model(mcpat_model, path)
        with GatewayThread(
            _two_model_fleet(autopower2, mcpat_model, max_models=2)
        ) as handle:
            # Touch mcpat so it is most-recently-routed ... and then
            # load a third model: mcpat is still the only evictable one.
            status, _h, _body = _http(
                handle.port, "POST", "/models/mcpat/predict", request_objs[:1]
            )
            assert status == 200
            status, _h, body = _http(
                handle.port, "PUT", "/models/third", {"path": str(path)}
            )
            assert status == 200
            assert body["evicted"] == ["mcpat"]
            status, _h, listing = _http(handle.port, "GET", "/models")
            assert set(listing["models"]) == {"default", "third"}
            status, _h, stats = _http(handle.port, "GET", "/stats")
            assert stats["fleet"]["evictions"] == 1


# ----------------------------------------------------------------------
# Auth + per-client rate limiting.


TOKEN_A = "alpha-secret-token"
TOKEN_B = "beta-secret-token"


@pytest.fixture(scope="module")
def auth_gateway(autopower2):
    service = api.PredictionService(autopower2)
    with GatewayThread(
        service,
        auth=Authenticator([TOKEN_A, TOKEN_B]),
    ) as handle:
        yield handle


class TestAuthOverHttp:
    def _model_calls(self, handle):
        _s, _h, stats = _http(
            handle.port, "GET", "/stats", token=f"Bearer {TOKEN_A}"
        )
        return stats["service"]["model_calls"]

    def test_missing_token_is_401_without_model_work(
        self, auth_gateway, request_objs
    ):
        before = self._model_calls(auth_gateway)
        status, headers, body = _http(
            auth_gateway.port, "POST", "/predict", request_objs
        )
        assert status == 401
        assert headers.get("www-authenticate") == "Bearer"
        assert "Authorization" in body["error"]["message"]
        assert self._model_calls(auth_gateway) == before

    def test_malformed_scheme_is_401(self, auth_gateway, request_objs):
        status, _h, _body = _http(
            auth_gateway.port, "POST", "/predict", request_objs,
            token=f"Basic {TOKEN_A}",
        )
        assert status == 401

    def test_wrong_token_is_403_without_model_work(
        self, auth_gateway, request_objs
    ):
        before = self._model_calls(auth_gateway)
        status, _h, _body = _http(
            auth_gateway.port, "POST", "/predict", request_objs,
            token="Bearer wrong-token",
        )
        assert status == 403
        assert self._model_calls(auth_gateway) == before

    def test_healthz_stays_open(self, auth_gateway):
        status, _h, body = _http(auth_gateway.port, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_good_token_serves_bitwise(
        self, auth_gateway, autopower2, request_objs
    ):
        status, _h, body = _http(
            auth_gateway.port, "POST", "/predict", request_objs,
            token=f"Bearer {TOKEN_A}",
        )
        assert status == 200
        assert [r["total"] for r in body] == _expected_totals(
            autopower2, request_objs
        )

    def test_tokens_never_echo_in_stats(self, auth_gateway):
        status, _h, stats = _http(
            auth_gateway.port, "GET", "/stats", token=f"Bearer {TOKEN_A}"
        )
        assert status == 200
        dumped = json.dumps(stats)
        assert TOKEN_A not in dumped and TOKEN_B not in dumped
        assert stats["auth"]["enabled"] is True
        assert stats["auth"]["accepted"] >= 1
        assert stats["auth"]["rejected_missing"] >= 1
        assert stats["auth"]["rejected_bad"] >= 1


class TestRateLimitOverHttp:
    def test_one_client_limited_while_other_serves_bitwise(
        self, autopower2, request_objs
    ):
        service = api.PredictionService(autopower2)
        with GatewayThread(
            service,
            auth=Authenticator([TOKEN_A, TOKEN_B]),
            # Frozen clock: no refill during the test, burst of 2.
            rate_limiter=RateLimiter(1.0, burst=2, clock=lambda: 0.0),
        ) as handle:
            one = request_objs[:1]
            for _ in range(2):  # burst
                status, _h, _b = _http(
                    handle.port, "POST", "/predict", one,
                    token=f"Bearer {TOKEN_A}",
                )
                assert status == 200
            status, headers, body = _http(
                handle.port, "POST", "/predict", one,
                token=f"Bearer {TOKEN_A}",
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert "rate limit" in body["error"]["message"]
            # The other client's bucket is untouched: bitwise service
            # (a list of N costs N tokens, so stay within the burst).
            batch = request_objs[:2]
            status, _h, body = _http(
                handle.port, "POST", "/predict", batch,
                token=f"Bearer {TOKEN_B}",
            )
            assert status == 200
            assert [r["total"] for r in body] == _expected_totals(
                autopower2, batch
            )
            status, _h, stats = _http(
                handle.port, "GET", "/stats", token=f"Bearer {TOKEN_B}"
            )
            assert stats["rate_limit"]["limited"] == 1
            limited_by = stats["rate_limit"]["limited_by_client"]
            assert limited_by == {client_digest(TOKEN_A): 1}
            assert TOKEN_A not in json.dumps(stats)


# ----------------------------------------------------------------------
# Unit layer: authenticator, limiter, merge/announce helpers.


class TestAuthenticator:
    def test_disabled_admits_everything(self):
        auth = Authenticator()
        assert auth.enabled is False
        assert auth.check(None) is None

    def test_check_statuses(self):
        auth = Authenticator(["tok"])
        with pytest.raises(AuthError) as missing:
            auth.check(None)
        assert missing.value.status == 401
        with pytest.raises(AuthError) as malformed:
            auth.check("Bearer ")
        assert malformed.value.status == 401
        with pytest.raises(AuthError) as wrong:
            auth.check("Bearer nope")
        assert wrong.value.status == 403
        assert auth.check("Bearer tok") == client_digest("tok")
        assert auth.check("bearer tok") == client_digest("tok")
        assert auth.snapshot() == {
            "enabled": True,
            "tokens": 1,
            "accepted": 2,
            "rejected_missing": 2,
            "rejected_bad": 1,
        }

    def test_from_sources_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_TOKEN", "envtok")
        auth = Authenticator.from_sources(env="REPRO_TEST_TOKEN")
        assert auth.check("Bearer envtok") == client_digest("envtok")
        monkeypatch.delenv("REPRO_TEST_TOKEN")
        with pytest.raises(ValueError, match="unset or empty"):
            Authenticator.from_sources(env="REPRO_TEST_TOKEN")

    def test_from_sources_file(self, tmp_path):
        token_file = tmp_path / "tokens.txt"
        token_file.write_text("# ops\nfirst\n\nsecond\n")
        auth = Authenticator.from_sources(file=token_file)
        assert auth.check("Bearer first")
        assert auth.check("Bearer second")
        (tmp_path / "empty.txt").write_text("# nothing\n")
        with pytest.raises(ValueError, match="no tokens"):
            Authenticator.from_sources(file=tmp_path / "empty.txt")

    def test_digest_is_not_the_token(self):
        digest = client_digest("super-secret")
        assert digest != "super-secret"
        assert len(digest) == 12


class TestRateLimiter:
    def test_disabled_is_noop(self):
        limiter = RateLimiter(None)
        limiter.admit("anyone", cost=10**6)
        assert limiter.snapshot()["enabled"] is False

    def test_burst_refill_and_retry_after(self):
        now = [0.0]
        limiter = RateLimiter(2.0, burst=2, clock=lambda: now[0])
        limiter.admit("a")
        limiter.admit("a")
        with pytest.raises(RateLimitedError) as exc:
            limiter.admit("a")
        assert exc.value.status == 429
        assert exc.value.retry_after == 1
        limiter.admit("b")  # independent bucket
        now[0] = 1.0  # 2 tokens refilled at rate 2/s
        limiter.admit("a")
        limiter.admit("a")
        snap = limiter.snapshot()
        assert snap["allowed"] == 5
        assert snap["limited"] == 1
        assert snap["limited_by_client"] == {"a": 1}

    def test_burst_is_a_ceiling(self):
        now = [0.0]
        limiter = RateLimiter(10.0, burst=1, clock=lambda: now[0])
        limiter.admit("a")
        now[0] = 100.0  # a long idle period must not bank extra tokens
        limiter.admit("a")
        with pytest.raises(RateLimitedError):
            limiter.admit("a")

    def test_least_recently_seen_eviction(self):
        limiter = RateLimiter(1.0, burst=1, clock=lambda: 0.0, max_clients=2)
        limiter.admit("a")
        limiter.admit("b")
        limiter.admit("c")  # evicts a
        assert limiter.snapshot()["clients_tracked"] == 2
        limiter.admit("a")  # fresh bucket again (burst restored)

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            RateLimiter(0.0)
        with pytest.raises(ValueError):
            RateLimiter(1.0, burst=0)
        with pytest.raises(ValueError):
            RateLimiter(1.0, max_clients=0)


class TestAnnounce:
    def test_round_trip(self):
        line = format_announce("127.0.0.1", 8123)
        assert line == f"REPRO-SERVING addr=http://127.0.0.1:8123 pid={os.getpid()}"
        parsed = parse_announce(f"noise\n{line}\nmore noise\n")
        assert parsed == {"host": "127.0.0.1", "port": 8123, "pid": os.getpid()}

    def test_single_worker_defaults(self):
        # The parser treats the pid field as optional.
        parsed = parse_announce("REPRO-SERVING addr=http://0.0.0.0:80\n")
        assert parsed == {"host": "0.0.0.0", "port": 80, "pid": None}

    def test_absent_announce_is_none(self):
        assert parse_announce("serving stuff on http://x:1\n") is None


class TestModelNameValidation:
    @pytest.mark.parametrize("name", ["a", "A-1_b.c", "x" * 64])
    def test_valid(self, name):
        assert validate_model_name(name) == name

    @pytest.mark.parametrize("name", ["", "a b", "a/b", "x" * 65, "é"])
    def test_invalid(self, name):
        with pytest.raises(FleetError) as exc:
            validate_model_name(name)
        assert exc.value.status == 400
