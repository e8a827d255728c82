"""Library-linking compliance (paper section 5, Figure 3).

Verifies that every libc function the client's code calls is byte-for-byte
the agreed library version (the paper uses musl-libc v1.0.5): the module
iterates the instruction buffer; for every *direct* call it resolves the
target through the symbol hash table and, when the name belongs to the
reference database, walks the callee instruction-by-instruction (stopping
when it reaches the start of another function), hashing its bytes with
SHA-256 and comparing against the golden hash.

Faithful to the paper, the walk+hash is repeated for **every call site**
— there is no memoisation.  ``memoize=True`` enables it, quantified by
the ``bench_ablation_hash_memo`` benchmark.
"""

from __future__ import annotations

from ...crypto.sha256 import sha256_fast
from ..policy import PolicyContext, PolicyModule, PolicyResult

__all__ = ["LibraryLinkingPolicy"]


class LibraryLinkingPolicy(PolicyModule):
    """Checks linked-library identity via per-function SHA-256 hashes."""

    name = "library-linking"

    def __init__(
        self,
        reference_hashes: dict[str, bytes],
        *,
        library_name: str = "musl-libc v1.0.5",
        require_all_calls_known: bool = False,
        memoize: bool = False,
    ) -> None:
        if not reference_hashes:
            raise ValueError("reference hash database is empty")
        self.reference_hashes = dict(reference_hashes)
        self.library_name = library_name
        self.require_all_calls_known = require_all_calls_known
        self.memoize = memoize

    def config_digest(self) -> bytes:
        """The golden database and flags are part of the agreement."""
        acc = sha256_fast(self.library_name.encode())
        for name in sorted(self.reference_hashes):
            acc = sha256_fast(acc + name.encode() + self.reference_hashes[name])
        return sha256_fast(
            acc + bytes([self.require_all_calls_known])
        )

    def check(self, ctx: PolicyContext) -> PolicyResult:
        result = self.result()
        meter = ctx.meter
        calls_checked = 0
        hashes_computed = 0
        cache: dict[int, bytes] = {}
        # Wall-clock-only digest index (cached contexts, unmemoized mode):
        # each callee's bytes are hashed once, but repeat call sites still
        # charge the meter — and count toward ``hashes_computed`` — exactly
        # as the paper's per-call-site walk does.  Observable behaviour is
        # identical to recomputing; only Python time is saved.
        use_index = ctx.cached and not self.memoize
        digest_index: dict[int, tuple[bytes, int, int]] = {}

        meter.charge("policy_scan_insn", len(ctx.instructions))
        for insn in ctx.direct_calls():
            target = insn.target
            name = ctx.symtab.lookup(target)
            if name is None:
                result.add_violation(
                    f"direct call at +{insn.offset:#x} targets a non-function "
                    "address"
                )
                continue
            if name not in self.reference_hashes:
                if self.require_all_calls_known:
                    result.add_violation(
                        f"call to {name!r} which is not in the "
                        f"{self.library_name} database"
                    )
                continue
            calls_checked += 1
            if self.memoize and target in cache:
                digest = cache[target]
            elif use_index and target in digest_index:
                digest, lookups, blocks = digest_index[target]
                meter.charge_batch(
                    {"symtab_lookup": lookups, "sha256_block": blocks}
                )
                hashes_computed += 1
            else:
                digest, lookups, blocks = self._hash_function(ctx, target)
                hashes_computed += 1
                if self.memoize:
                    cache[target] = digest
                elif use_index:
                    digest_index[target] = (digest, lookups, blocks)
            if digest != self.reference_hashes[name]:
                result.add_violation(
                    f"function {name!r} does not match {self.library_name}"
                )

        result.stats["calls_checked"] = calls_checked
        result.stats["hashes_computed"] = hashes_computed
        return result

    def _hash_function(
        self, ctx: PolicyContext, start: int
    ) -> tuple[bytes, int, int]:
        """Walk the callee from *start* to the next function start, hashing.

        Each walked instruction consults the symbol hash table ("is this
        the beginning of another function?"), exactly as the paper
        describes — that lookup, plus the SHA-256 compression over the
        callee's bytes, is what makes this the most expensive policy in
        Figure 3.  Charges are batched with the exact counts the
        instruction-by-instruction walk performs.

        Returns ``(digest, symtab_lookups, sha256_blocks)`` — the charge
        counts let the digest index re-charge repeat call sites with
        exactly what this walk cost (``next_function_start`` charges one
        extra symtab_lookup on top of the per-instruction probes).
        """
        meter = ctx.meter
        text = ctx.image.text_sections[0].data
        first = ctx.index_by_offset[start]
        end_offset = ctx.symtab.next_function_start(start)
        if end_offset is None:
            # the validated buffer covers the text exactly
            last = len(ctx.instructions)
            end_byte = len(text)
        else:
            last = ctx.index_by_offset[end_offset]
            end_byte = end_offset
        # One is-function-start probe per walked instruction (including the
        # boundary instruction that terminates the walk).
        meter.charge("symtab_lookup", max(last - first, 1))
        nbytes = end_byte - start
        blocks = (nbytes + 63) // 64 + 1  # +1 finalise
        meter.charge("sha256_block", blocks)
        digest = sha256_fast(text[start:end_byte])
        return digest, 1 + max(last - first, 1), blocks
