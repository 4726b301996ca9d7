#!/usr/bin/env python
"""A real client/server deployment: LBL-ORTOA over TCP sockets.

The untrusted storage server runs as a TCP service holding zero key
material; the trusted proxy connects over a socket and performs oblivious
reads/writes.  Everything on the wire is exactly the protocol's serialized
messages — run tcpdump on the loopback if you want to check.

Run:  python examples/tcp_deployment.py
"""

from repro import Request, StoreConfig
from repro.transport import LblTcpServer, RemoteLblOrtoa


def main() -> None:
    # --- The storage host (in production: another machine) ---------------
    server = LblTcpServer()
    server.serve_in_background()
    host, port = server.address
    print(f"Untrusted LBL server listening on {host}:{port} "
          "(holds labels only — no keys, no plaintext).\n")

    # --- The trusted side -------------------------------------------------
    config = StoreConfig(value_len=32, group_bits=2)
    with RemoteLblOrtoa(config, (host, port)) as store:
        store.initialize({
            "patient-77": b"bp=128mmHg",
            "patient-78": b"bp=141mmHg",
        })
        print("Proxy initialized 2 records over the socket.")

        value = store.read("patient-77")
        print(f"Oblivious read over TCP: {value.rstrip(bytes(1))!r}")

        store.write("patient-77", b"bp=119mmHg")
        print(f"Oblivious write, then read-back: "
              f"{store.read('patient-77').rstrip(bytes(1))!r}\n")

        t_read = store.access(Request.read("patient-78"))
        t_write = store.access(Request.write("patient-78", config.pad(b"bp=999")))
        print("Bytes on the actual wire (per request/response):")
        print(f"  read : {t_read.request_bytes:6d} / {t_read.response_bytes} B")
        print(f"  write: {t_write.request_bytes:6d} / {t_write.response_bytes} B")
        print("  identical -> a packet capture cannot tell them apart.")

    server.close()
    print("\nServer stopped.")


if __name__ == "__main__":
    main()
