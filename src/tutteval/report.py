"""Structured verification outcomes.

A Report is the unit every check returns: name, parameters, pass/fail/
inconclusive, a witness on failure, a case count and wall time.  Reports are
deterministic given their parameters; timing is excluded from the JSON
emitted for fixture comparison so that identical runs are byte-identical.
"""

from __future__ import annotations

import json
import time


class Record:
    """Field-wise `==` and `repr` over the attributes that a subclass's
    `__init__` sets.  It stands in for `dataclasses`, whose import (inspect,
    ast, dis, tokenize) adds about 1 MB to the resident memory of every
    run."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({args})"


class Report(Record):
    def __init__(self, check: str, params: dict, status: str,
                 witness: object = None, n_cases: int = 0, millis: int = 0):
        self.check = check
        self.params = params
        self.status = status  # "pass" | "fail" | "inconclusive"
        self.witness = witness
        self.n_cases = n_cases
        self.millis = millis

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json_obj(self, with_timing: bool = False) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "witness": self.witness,
            "n_cases": self.n_cases,
            "millis": self.millis if with_timing else None,
        }

    def line(self) -> str:
        head = "PASS" if self.ok else self.status.upper()
        params = ", ".join(f"{k}={v}" for k, v in self.params.items())
        msg = f"[{head}] {self.check}({params}) cases={self.n_cases} {self.millis}ms"
        if self.witness is not None:
            msg += f" witness={self.witness}"
        return msg


def passed(check: str, params: dict, n_cases: int, t0: float) -> Report:
    return Report(check, params, "pass", None, n_cases,
                  int((time.perf_counter() - t0) * 1000))


def failed(check: str, params: dict, witness, n_cases: int, t0: float) -> Report:
    return Report(check, params, "fail", witness, n_cases,
                  int((time.perf_counter() - t0) * 1000))


def inconclusive(check: str, params: dict, witness, n_cases: int,
                 t0: float) -> Report:
    return Report(check, params, "inconclusive", witness, n_cases,
                  int((time.perf_counter() - t0) * 1000))


def reports_to_json(reports: list[Report], with_timing: bool = False) -> str:
    return json.dumps([r.to_json_obj(with_timing) for r in reports],
                      indent=2, sort_keys=False)
