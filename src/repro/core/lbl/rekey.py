"""Master-key rotation for LBL-ORTOA deployments.

Long-lived deployments must be able to retire a master secret (operator
churn, suspected exposure, compliance).  In LBL-ORTOA everything the server
stores is derived from the master key's PRFs, so rotation means re-encoding
the entire database.  :func:`rekey` does it with the tools the protocol
already has:

1. **Drain** — an oblivious *read* of every key through the old deployment
   recovers every plaintext value at the proxy (and, per §5.4, verifies
   integrity of the whole database in passing).
2. **Re-encode** — a fresh deployment under the new keychain is initialized
   with the recovered values; every encoded key and every label changes.

The server observes a full scan followed by a bulk load — unavoidable for a
full rotation and independent of the data, so nothing new leaks.  The scan
is made of ordinary type-oblivious accesses, so even during rotation the
server cannot distinguish it from application reads (or writes).
"""

from __future__ import annotations

from repro.core.lbl import LblOrtoa
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError


def rekey(old: LblOrtoa, new_keychain: KeyChain | None = None) -> LblOrtoa:
    """Rotate a deployment onto a fresh master key.

    Args:
        old: The live deployment to drain.  It remains functional afterwards
            (rotation must be able to roll back until cut-over), but callers
            should retire it once the new deployment is serving.
        new_keychain: Key material for the new deployment; generated fresh
            when omitted.

    Returns:
        A new :class:`LblOrtoa` holding the same logical contents under
        entirely new server-side encodings.

    Raises:
        ConfigurationError: if the new keychain equals the old one (that
            would be a no-op masquerading as a rotation).
        TamperDetectedError: propagated from the drain if any stored label
            fails verification — rotation doubles as an integrity audit.
    """
    new_keychain = new_keychain or KeyChain(label_bits=old.config.label_bits)
    if new_keychain.encode_key("probe") == old.keychain.encode_key("probe"):
        raise ConfigurationError("new keychain must differ from the old one")

    recovered = {key: old.read(key) for key in sorted(old.proxy.counters())}
    replacement = LblOrtoa(old.config, keychain=new_keychain)
    replacement.initialize(recovered)
    return replacement


__all__ = ["rekey"]
