"""Bearer-token authentication for the HTTP frontend.

Tokens ride the standard header (``Authorization: Bearer <token>``) and
resolve to a :class:`Principal` — a tenant name plus the
:class:`~repro.security.credentials.Consumer` identity the token was issued
to.  The check itself is expressed with the library's own credential
machinery: every tenant has a
:class:`~repro.security.credentials.CredentialPredicate` requiring the
``tenant:<name>`` credential, and a token authenticates a consumer carrying
exactly that credential.  Enforcement endpoints reuse the same consumer
object, so "who asked" is one identity from the socket down to the
per-consumer protected account.

Tokens are opaque random strings (:func:`secrets.token_urlsafe`) unless the
operator supplies fixed ones (the CLI's ``--tenant name=token``); lookups
compare with :func:`secrets.compare_digest` so token checking is not a
timing oracle.
"""

from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.security.credentials import Consumer, CredentialPredicate, credential_predicate
from repro.server.errors import AuthenticationError, AuthorizationError


def tenant_credential(tenant: str) -> str:
    """The credential string a tenant's tokens confer (``tenant:<name>``)."""
    return f"tenant:{tenant}"


@dataclass(frozen=True)
class Principal:
    """An authenticated caller: the tenant plus its consumer identity."""

    tenant: str
    consumer: Consumer

    def authorize(self, tenant: Optional[str]) -> str:
        """Check this principal may act for ``tenant``; returns the effective tenant.

        ``None`` (the common case — the request names no tenant) resolves to
        the principal's own tenant.  Naming another tenant is a 403: tokens
        are strictly tenant-scoped.
        """
        if tenant is None or tenant == self.tenant:
            return self.tenant
        raise AuthorizationError(
            f"token for tenant {self.tenant!r} may not act for tenant {tenant!r}"
        )


class TokenAuthenticator:
    """Issues and verifies per-tenant bearer tokens (thread-safe).

    One authenticator backs the whole server: :meth:`issue` enrolls a token
    for a tenant (generating one when the operator did not supply it) and
    :meth:`authenticate` resolves an ``Authorization`` header to a
    :class:`Principal`, raising
    :class:`~repro.server.errors.AuthenticationError` (→ 401) on a missing,
    malformed or unknown token.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tokens: Dict[str, Principal] = {}
        self._predicates: Dict[str, CredentialPredicate] = {}

    def issue(self, tenant: str, token: Optional[str] = None) -> str:
        """Enroll (or generate) a bearer token for ``tenant``; returns it."""
        if token is None:
            token = secrets.token_urlsafe(24)
        if not token:
            raise ValueError("a bearer token must be non-empty")
        consumer = Consumer.with_credentials(
            f"token:{tenant}", tenant_credential(tenant), tenant=tenant
        )
        predicate = self._predicates.setdefault(
            tenant, credential_predicate(tenant, tenant_credential(tenant))
        )
        if not predicate(consumer):  # pragma: no cover - consistency guard
            raise ValueError(f"issued consumer does not satisfy tenant predicate {tenant!r}")
        with self._lock:
            self._tokens[token] = Principal(tenant=tenant, consumer=consumer)
        return token

    def tenants(self) -> Tuple[str, ...]:
        """Every tenant at least one live token was issued for."""
        with self._lock:
            return tuple(dict.fromkeys(principal.tenant for principal in self._tokens.values()))

    def authenticate(self, authorization: Optional[str]) -> Principal:
        """Resolve an ``Authorization`` header value to a :class:`Principal`."""
        if authorization is None or not authorization.strip():
            raise AuthenticationError("missing Authorization header (expected 'Bearer <token>')")
        scheme, _, token = authorization.strip().partition(" ")
        token = token.strip()
        if scheme.lower() != "bearer" or not token:
            raise AuthenticationError("malformed Authorization header (expected 'Bearer <token>')")
        with self._lock:
            for known, principal in self._tokens.items():
                if secrets.compare_digest(known, token):
                    return principal
        raise AuthenticationError("unknown bearer token")
