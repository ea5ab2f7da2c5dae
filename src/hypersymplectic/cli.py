"""Command-line entry point.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 the
configuration could not be used (bad JSON, unknown scenario or suite,
malformed section polynomials, a section that does not fit the model) or the
checks cannot be evaluated on it (a geometric precondition fails
numerically, e.g. a section whose tangent frame is not finite) or the
report cannot be written to its path.  On exit 2 no report file is written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, GeometryError
from .scenarios import ScenarioConfig, list_scenarios, run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersymplectic",
        description=(
            "verify the identities of the hyper-symplectic / hypercomplex "
            "structure triple on a model fibration and report the residuals"
        ),
    )
    parser.add_argument("--config", type=Path, help="JSON configuration file")
    parser.add_argument("--scenario", help="scenario name (overrides the config file)")
    parser.add_argument("--output", type=Path, help="write the JSON report here")
    parser.add_argument("--seed", type=int, help="sampling seed (overrides the config file)")
    parser.add_argument(
        "--tolerance-fd",
        type=float,
        dest="tolerance_fd",
        help="tolerance of the first-derivative checks (key tolerances.fd)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and suites, then exit"
    )
    return parser


# built once: parse_args leaves the parser as it found it
_PARSER = build_parser()


def _override(raw: dict, key: str, field: str, value) -> None:
    """Set ``raw[key][field]``, reading a null ``raw[key]`` as an empty
    object.  Any other non-object is left for ``ScenarioConfig.from_dict``
    to reject."""
    if raw.get(key) is None:
        raw[key] = {}
    if isinstance(raw[key], dict):
        raw[key][field] = value


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    raw: dict = {}
    if args.config is not None:
        try:
            raw = json.loads(args.config.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
        except ValueError as exc:  # bad JSON, or an integer past int's digit limit
            raise ConfigError(f"{args.config} is not readable JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")

    if args.scenario is not None:
        raw["scenario"] = args.scenario
    if args.seed is not None:
        _override(raw, "sampling", "seed", args.seed)
    if args.tolerance_fd is not None:
        _override(raw, "tolerances", "fd", args.tolerance_fd)
    if args.output is not None:
        raw["output"] = str(args.output)
    return ScenarioConfig.from_dict(raw)


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if args.list:
        print(list_scenarios())
        return 0

    # a section is bound to its model, and can turn out not to fit it, only in run_scenario
    try:
        config = _load_config(args)
        document = run_scenario(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 2

    if config.output is not None:
        try:
            Path(config.output).write_text(document.to_json())
        except OSError as exc:
            print(f"cannot write {config.output}: {exc}", file=sys.stderr)
            return 2
        for line in document.summary_lines():
            print(line)
        print(f"report written to {config.output}")
    else:
        sys.stdout.write(document.to_json())
        for line in document.summary_lines():
            print(line, file=sys.stderr)

    return 0 if document.verdict == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
