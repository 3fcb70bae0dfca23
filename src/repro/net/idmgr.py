"""``python -m repro.net.idmgr``: the identity manager as a server process.

Builds the IdP/IdMgr pair from the scenario (deterministic in its seed),
publishes the parameter bundle (public signature key, pseudonyms, signed
assertions) for the other processes, then serves ``TokenRequest`` frames
from the broker until stopped.
"""

from __future__ import annotations

import argparse

from repro.net._cli import add_common_arguments, install_stop_signals, parse_endpoint
from repro.net.bootstrap import build_identity_stack, load_scenario, write_bundle
from repro.net.runtime import pump_forever
from repro.net.transport import TcpTransport
from repro.obs.profile import observing, profile_window
from repro.store import IdMgrPersistence
from repro.system.service import IdentityManagerEndpoint

__all__ = ["main"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.idmgr",
        description="Serve identity-token issuance over the broker.",
    )
    add_common_arguments(parser)
    parser.add_argument("--profile-dir", default=None,
                        help="record cProfile aggregates for the serving "
                             "loop into profile_<name>.json under this "
                             "directory (readable by python -m "
                             "repro.obs.profile); function names only, "
                             "never argument values")
    args = parser.parse_args(argv)

    scenario = load_scenario(args.scenario)
    idp, idmgr, nyms, assertions = build_identity_stack(scenario)
    persistence = None
    if args.data_dir:
        # Recovery restores the signing key, pseudonym counter and the
        # issued-token registry before the (re-derived) bundle is
        # published, so the public key on disk and in the bundle agree.
        persistence = IdMgrPersistence.attach(args.data_dir, idmgr)
        if persistence.recovered:
            print("recovered idmgr state: %d issued tokens, nym counter %d"
                  % (len(idmgr.issued), idmgr.nym_counter), flush=True)
    write_bundle(args.bundle, scenario, idmgr, nyms, assertions)
    print("bundle written to %s (%d users)" % (args.bundle, len(nyms)), flush=True)

    stop = install_stop_signals()
    host, port = parse_endpoint(args.broker)
    # The telemetry scope makes wal.* spans and the serve profile window
    # land in this process's files (and restores the host's on exit).
    scope = observing(args.data_dir, args.profile_dir, scenario["idmgr"])
    with scope as (obs, profiler):
        try:
            with TcpTransport(host, port) as transport:
                endpoint = IdentityManagerEndpoint(
                    idmgr, transport, name=scenario["idmgr"],
                    persistence=persistence,
                )
                endpoint.span_writer = obs
                if profiler is not None:
                    from repro.groups._native import BACKEND

                    profiler.annotate(math_backend=BACKEND)
                print("idmgr serving as %r on %s" % (endpoint.name, args.broker),
                      flush=True)
                errors = []
                with profile_window("serve"):
                    pump_forever([endpoint], stop, errors=errors)
                for error in errors:
                    print("absorbed: %s" % error, flush=True)
                if endpoint.rejections:
                    print("rejected %d token requests" % len(endpoint.rejections),
                          flush=True)
        finally:
            if persistence is not None:
                persistence.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
