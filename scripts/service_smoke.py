"""CI smoke test: a real ``repro serve`` process against the real CLI.

Starts the service as a subprocess on an ephemeral port (discovered
from its announce line), POSTs predictions for two different predictor
specs, and **diffs them against `repro predict`**: the served payload is
rebuilt into a :class:`MixPrediction` and its ``describe()`` rendering
must equal, line for line, what the batch CLI prints for the same spec
strings.  Then hits ``/healthz`` and ``/stats`` (asserting the served
counter moved) and shuts the server down cleanly via ``POST /shutdown``.

Arguments after ``--`` are passed through to ``repro serve``; with
``--fleet`` the server must report every fleet worker alive and every
dispatched job completed.  Everything is stdlib: ``subprocess`` +
``urllib``.  Run from the repo root::

    PYTHONPATH=src python scripts/service_smoke.py [-- --fleet localhost:2]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.request
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")

WORKLOAD = "suite:spec29/scaled@5"
INSTRUCTIONS = "20000"
MIX = ["gamess", "hmmer"]
PREDICTORS = ["mppm:foa", "baseline:one-shot"]

SERVE_ARGS = [
    "serve",
    "--port",
    "0",
    "--suite",
    WORKLOAD,
    "--instructions",
    INSTRUCTIONS,
]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if "PYTHONPATH" in env else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _http(method: str, url: str, payload: dict | None = None) -> dict:
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read().decode("utf-8"))


def _cli_predict(predictor: str) -> str:
    """What `repro predict` prints for the same spec strings."""
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "predict",
            "--suite",
            WORKLOAD,
            "--instructions",
            INSTRUCTIONS,
            "--model",
            predictor,
            *MIX,
        ],
        env=_env(),
        capture_output=True,
        text=True,
        check=True,
        cwd=REPO_ROOT,
    )
    return result.stdout.strip()


def main(argv: List[str]) -> int:
    if argv and argv[0] != "--":
        sys.exit(f"usage: service_smoke.py [-- REPRO_SERVE_ARGS...]; got {argv[0]!r}")
    serve_args = [*SERVE_ARGS, *argv[1:]]
    sys.path.insert(0, SRC)
    from repro.core.result import MixPrediction
    from repro.service.runner import ANNOUNCE_PREFIX

    print(f"smoke: repro {' '.join(serve_args)}")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *serve_args],
        env=_env(),
        stdout=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
    )
    try:
        assert server.stdout is not None
        line = server.stdout.readline().strip()
        assert line.startswith(ANNOUNCE_PREFIX), f"unexpected announce line: {line!r}"
        base = line[len(ANNOUNCE_PREFIX) :]
        print(f"smoke: server up at {base}")

        health = _http("GET", f"{base}/healthz")
        assert health["status"] == "ok", health
        assert health["preloaded_profiles"] > 0, health

        for predictor in PREDICTORS:
            served = _http(
                "POST", f"{base}/predict", {"mix": MIX, "predictor": predictor}
            )
            rebuilt = MixPrediction.from_dict(served["prediction"]).describe()
            expected = _cli_predict(predictor)
            assert rebuilt == expected, (
                f"served prediction diverges from `repro predict` for {predictor}:\n"
                f"--- served ---\n{rebuilt}\n--- repro predict ---\n{expected}"
            )
            print(f"smoke: {predictor} matches `repro predict` bit for bit")

        stats = _http("GET", f"{base}/stats")
        assert stats["predictions"]["served"] >= len(PREDICTORS), stats
        assert stats["requests"]["total"] >= len(PREDICTORS) + 1, stats
        print(
            f"smoke: stats ok (served {stats['predictions']['served']}, "
            f"computed {stats['predictions']['computed']}, "
            f"cache hits {stats['engine_cache']['hits']})"
        )
        fleet = stats.get("fleet")
        if fleet is not None:
            assert fleet["alive"] == len(fleet["workers"]) > 0, fleet
            assert fleet["completed"] == fleet["dispatched"] > 0, fleet
            print(
                f"smoke: fleet ok ({fleet['alive']} workers, "
                f"{fleet['completed']} jobs completed)"
            )

        _http("POST", f"{base}/shutdown")
        code = server.wait(timeout=30)
        assert code == 0, f"server exited with {code}"
        print("smoke: clean shutdown")
        return 0
    finally:
        if server.poll() is None:
            server.terminate()
            server.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
