"""Service admission control and graceful degradation.

The robustness contract under test (see ``repro.service.server``):

* past the ``max_inflight`` budget, new computations get the typed
  retryable ``busy`` error while admitted ones complete; in-flight
  dedup joiners stay free;
* the ``health`` probe always answers, without consuming budget;
* a campaign request's ``deadline_s`` degrades gracefully: a partial
  result flagged ``degraded: true``, never a dropped request;
* an oversized request line gets a clean ``ContractError`` response
  and the connection — including pipelined requests behind the bad
  line — survives.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import ReproError, ServiceBusyError
from repro.service import DesignService

CAMPAIGN = {
    "v": 1,
    "kind": "campaign",
    "params": {
        "app": "vopd",
        "topology": "mesh",
        "rates": [0.05],
        "patterns": ["uniform"],
        "seeds": [1],
        "warmup": 20,
        "measure": 60,
        "drain": 20,
    },
}
HEALTH = {"v": 1, "kind": "health", "params": {}}


def campaign(request_id: str, **params) -> dict:
    payload = dict(CAMPAIGN, id=request_id)
    payload["params"] = dict(CAMPAIGN["params"], **params)
    return payload


def handle(service: DesignService, payload: dict) -> dict:
    return asyncio.run(service.handle(payload))


class TestHealth:
    def test_health_probe_reports_the_service_state(self):
        service = DesignService(max_inflight=3)
        response = handle(service, dict(HEALTH, id="h1"))
        assert response["ok"], response
        assert response["kind"] == "health"
        assert response["id"] == "h1"
        result = response["result"]
        assert result["status"] == "ok"
        assert result["in_flight"] == 0
        assert result["max_inflight"] == 3
        assert result["busy_rejections"] == 0
        assert result["job_failures"] == {}
        assert set(result["cache"]) == {
            "entries", "hits", "misses", "evictions", "write_errors",
        }

    def test_health_requires_no_params_content(self):
        response = handle(DesignService(), HEALTH)
        assert response["ok"], response


class TestAdmissionControl:
    def test_over_budget_burst_gets_typed_busy(self):
        service = DesignService(max_inflight=1)

        async def burst():
            return await asyncio.gather(
                service.handle(campaign("admitted")),
                service.handle(campaign("rejected", rates=[0.08])),
            )

        first, second = asyncio.run(burst())
        assert first["ok"], first
        assert not second["ok"]
        error = second["error"]
        assert error["type"] == "ServiceBusyError"
        assert error["code"] == "busy"
        assert error["retryable"] is True
        assert error["retry_after_s"] > 0
        assert service.busy_rejections == 1
        assert service.computed == 1  # the rejected request cost nothing

    def test_dedup_joiners_do_not_consume_budget(self):
        service = DesignService(max_inflight=1)

        async def burst():
            return await asyncio.gather(
                service.handle(campaign("owner")),
                service.handle(campaign("joiner")),
                service.handle(campaign("other", rates=[0.08])),
            )

        owner, joiner, other = asyncio.run(burst())
        assert owner["ok"] and joiner["ok"]
        assert joiner["stats"]["deduped"] is True
        assert not other["ok"]
        assert other["error"]["code"] == "busy"
        assert service.computed == 1

    def test_health_answers_while_saturated(self):
        service = DesignService(max_inflight=1)

        async def scenario():
            compute = asyncio.ensure_future(
                service.handle(campaign("slow"))
            )
            await asyncio.sleep(0.01)  # let it be admitted
            probe = await service.handle(dict(HEALTH, id="probe"))
            return probe, await compute

        probe, compute = asyncio.run(scenario())
        assert compute["ok"]
        assert probe["ok"]
        assert probe["result"]["in_flight"] in (0, 1)

    def test_busy_rejection_retires_the_inflight_entry(self):
        service = DesignService(max_inflight=1)

        async def burst():
            return await asyncio.gather(
                service.handle(campaign("a")),
                service.handle(campaign("b", rates=[0.08])),
            )

        asyncio.run(burst())
        assert len(service.inflight) == 0
        # The rejected fingerprint is usable again once load clears.
        retry = handle(service, campaign("b-retry", rates=[0.08]))
        assert retry["ok"], retry

    def test_max_inflight_validation(self):
        with pytest.raises(ReproError):
            DesignService(max_inflight=0)
        with pytest.raises(ReproError):
            DesignService(max_request_bytes=512)


class TestDeadlineDegradation:
    def test_deadline_returns_partial_flagged_degraded(self):
        response = handle(
            DesignService(),
            campaign(
                "dl",
                rates=[0.05, 0.1],
                patterns=["uniform", "transpose"],
                deadline_s=1e-9,
            ),
        )
        assert response["ok"], response
        result = response["result"]
        assert result["degraded"] is True
        assert result["skipped_points"] == 2
        assert len(result["points"]) == 2  # the first chunk always runs

    def test_generous_deadline_changes_nothing(self):
        from repro.simulation.campaign import strip_runtime

        plain = handle(DesignService(), campaign("p"))
        relaxed = handle(
            DesignService(), campaign("r", deadline_s=3600.0)
        )
        assert strip_runtime(plain["result"]) == strip_runtime(
            relaxed["result"]
        )
        assert "degraded" not in plain["result"]

    @pytest.mark.parametrize("bad", [0, -1.5, "fast"])
    def test_invalid_deadline_is_a_contract_error(self, bad):
        response = handle(
            DesignService(), campaign("bad", deadline_s=bad)
        )
        assert not response["ok"]
        assert response["error"]["type"] == "ContractError"


class TestOversizedLines:
    """TCP transport: over-limit lines answered, connection intact."""

    def _serve(self, coro_factory):
        async def scenario():
            service = DesignService(max_request_bytes=2048)
            server = await service.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await coro_factory(port)
            finally:
                server.close()
                await server.wait_closed()

        return asyncio.run(scenario())

    def test_oversized_line_gets_contract_error_not_a_drop(self):
        async def scenario(port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(b"x" * 5000 + b"\n")
            writer.write(
                json.dumps(dict(HEALTH, id="after")).encode() + b"\n"
            )
            await writer.drain()
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return first, second

        first, second = self._serve(scenario)
        assert not first["ok"]
        assert first["error"]["type"] == "ContractError"
        assert "byte limit" in first["error"]["message"]
        # The pipelined request behind the bad line still got served.
        assert second["ok"] and second["id"] == "after"

    def test_unterminated_final_line_is_still_a_request(self):
        async def scenario(port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(json.dumps(dict(HEALTH, id="eof")).encode())
            writer.write_eof()  # EOF with no trailing newline
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return response

        response = self._serve(scenario)
        assert response["ok"] and response["id"] == "eof"


class TestBusyError:
    def test_retry_after_default(self):
        exc = ServiceBusyError("full")
        assert exc.retry_after_s == 1.0

    def test_retry_hint_tracks_compute_time(self):
        service = DesignService(max_inflight=1)
        assert service._retry_hint() == 1.0
        handle(service, campaign("warm"))
        hint = service._retry_hint()
        assert 0.05 <= hint <= 30.0
