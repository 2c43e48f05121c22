"""Tests for the federated representation protocols and the message bus."""

import tracemalloc

import numpy as np
import pytest

from vfkt.bus import MessageBus
from vfkt.data import ConfigError, OverlapIndex
from vfkt.frl import (
    MASK_BLOCK,
    EigenShare,
    FrlParams,
    ProtocolError,
    fedsvd_keygen,
    fedsvd_mask,
    fedsvd_recover,
    fedsvd_server,
    run_fedsvd,
    run_frl,
    run_vfedpca,
    sample_gram,
    vfedpca_aggregate,
    vfedpca_local,
    vfedpca_reconstruct,
)
from vfkt.numerics import random_orthogonal


def _overlap(n):
    return OverlapIndex(
        overlapping_ids=tuple(f"s{i:03d}" for i in range(n)),
        task_rows=np.arange(n),
        data_rows=np.arange(n),
    )


def _parties(n=20, sizes=(4, 3, 5), seed=0):
    rng = np.random.default_rng(seed)
    return {f"p{k}": rng.normal(size=(n, f)) for k, f in enumerate(sizes)}


def _dense_a(keys):
    """The block-diagonal row mask A assembled from a party's mask keys."""
    n = sum(b.shape[0] for b in keys[:-1])
    a = np.zeros((n, n))
    start = 0
    for block in keys[:-1]:
        stop = start + block.shape[0]
        a[start:stop, start:stop] = block
        start = stop
    return a


def _align_columns(u, ref):
    """Flip column signs of u to match ref (singular vectors are sign-ambiguous)."""
    signs = np.sign(np.sum(u * ref, axis=0))
    signs[signs == 0] = 1.0
    return u * signs


class TestBus:
    def test_send_delivers_the_payload(self):
        bus = MessageBus()
        payload = (np.ones(2), np.zeros((1, 3)))
        assert bus.send("a", "b", "k", payload) is payload
        assert bus.send("a", "b", "k", "fedsvd") == "fedsvd"
        assert [(r["from"], r["to"], r["kind"]) for r in bus.trace] == [("a", "b", "k")] * 2

    def test_trace_fingerprint_only(self):
        bus = MessageBus()
        secret = np.arange(6.0).reshape(2, 3)
        bus.send("a", "b", "blob", secret)
        rec = bus.trace[0]
        assert set(rec) == {"from", "to", "kind", "shape", "checksum"}
        assert rec["shape"] == [2, 3]
        assert len(rec["checksum"]) == 16

    @pytest.mark.parametrize("payload", [
        (np.ones(2), 3.0),  # mixed
        ((np.ones(2), np.ones(3)), np.ones(4)),  # nested
        [[np.ones((2, 2))]],
        {"a": np.ones(2)},
    ])
    def test_payload_with_untraceable_arrays_is_refused(self, payload):
        # every float that crosses the bus must be counted by the trace shape
        bus = MessageBus()
        with pytest.raises(TypeError, match="flat tuple/list of arrays"):
            bus.send("a", "b", "blob", payload)
        assert bus.trace == []

    def test_flat_array_tuple_and_array_free_payloads_are_traced(self):
        bus = MessageBus()
        bus.send("a", "b", "k", (np.ones((2, 2)), np.ones(3)))
        bus.send("a", "b", "k", ("fedsvd", 3, None))
        assert [r["shape"] for r in bus.trace] == [[[2, 2], [3]], None]

    def test_fingerprint_reads_an_array_in_place(self):
        # the digest is that of the bytes, hashed from the array's own
        # buffer: a 1200 x 256 mask is not copied to be traced
        import hashlib
        import tracemalloc

        mask = np.random.default_rng(0).standard_normal((1200, 256))
        tracemalloc.start()
        try:
            MessageBus().send("a", "b", "mask", mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mask.nbytes / 10
        want = hashlib.sha256(str(mask.shape).encode() + mask.tobytes()).hexdigest()[:16]
        bus = MessageBus()
        bus.send("a", "b", "mask", mask)
        bus.send("a", "b", "mask", np.asfortranarray(mask))  # copied to C order first
        assert [r["checksum"] for r in bus.trace] == [want, want]

    def test_trace_queries(self):
        bus = MessageBus()
        bus.send("a", "srv", "x", 1)
        bus.send("b", "srv", "y", 2)
        assert len(bus.messages_to("srv")) == 2
        assert [r["from"] for r in bus.messages_of_kind("y")] == ["b"]


class TestFedSvdSteps:
    def test_keygen_masks_are_orthogonal(self):
        keys = fedsvd_keygen(8, [3, 5], seed=0)
        a = _dense_a(keys[0])
        np.testing.assert_allclose(a @ a.T, np.eye(8), atol=1e-10)
        # every party gets the same A blocks, then its own slice of B
        assert all(x is y for k in keys for x, y in zip(k[:-1], keys[0][:-1], strict=True))
        b = np.vstack([k[-1] for k in keys])
        np.testing.assert_allclose(b @ b.T, np.eye(8), atol=1e-10)
        assert [k[-1].shape for k in keys] == [(3, 8), (5, 8)]

    @pytest.mark.parametrize("n", [1, 80, 200, MASK_BLOCK])
    def test_one_block_is_the_dense_haar_mask(self, n):
        # up to one block, A is exactly the dense Haar mask of the same seed
        a, _ = fedsvd_keygen(n, [3, 4], seed=11)[0]
        np.testing.assert_array_equal(a, random_orthogonal(n, np.random.default_rng(11)))

    def test_column_mask_is_dense_below_the_block_size(self):
        # block_size shapes A only: B mixes every feature of every party
        keys = fedsvd_keygen(6, [3, 5], seed=2, block_size=2)
        b = np.vstack([k[-1] for k in keys])
        np.testing.assert_allclose(b @ b.T, np.eye(8), atol=1e-10)
        assert np.all(b != 0)

    @pytest.mark.parametrize("n, block_size", [(8, None), (20, 8), (30, 8)])
    def test_column_mask_is_the_haar_draw_after_the_row_blocks(self, n, block_size):
        keys = fedsvd_keygen(n, [3, 5], seed=6, block_size=block_size)
        rng = np.random.default_rng(6)
        for block in keys[0][:-1]:
            np.testing.assert_array_equal(block, random_orthogonal(block.shape[0], rng))
        np.testing.assert_array_equal(np.vstack([k[-1] for k in keys]),
                                      random_orthogonal(8, rng))

    def test_large_overlap_is_split_into_blocks(self):
        keys = fedsvd_keygen(2 * MASK_BLOCK + 7, [3], seed=0)[0]
        assert [b.shape for b in keys[:-1]] == [(MASK_BLOCK,) * 2] * 2 + [(7, 7)]
        a = _dense_a(keys)
        np.testing.assert_allclose(a @ a.T, np.eye(a.shape[0]), atol=1e-10)
        assert [b.shape for b in fedsvd_keygen(100, [3], 0, block_size=40)[0][:-1]] == \
            [(40, 40), (40, 40), (20, 20)]

    def test_keygen_rejects_bad_sizes(self):
        with pytest.raises(ProtocolError):
            fedsvd_keygen(0, [3], seed=0)
        with pytest.raises(ProtocolError):
            fedsvd_keygen(4, [], seed=0)
        with pytest.raises(ProtocolError):
            fedsvd_keygen(4, [2, 0], seed=0)

    def test_mask_dimension_mismatch(self):
        keys = fedsvd_keygen(4, [3], seed=1)
        with pytest.raises(ProtocolError, match="mismatch"):
            fedsvd_mask(np.ones((4, 2)), keys[0])
        with pytest.raises(ProtocolError, match="mismatch"):
            fedsvd_mask(np.ones((5, 3)), keys[0])
        with pytest.raises(ProtocolError, match="mismatch"):
            fedsvd_recover(np.ones((5, 2)), keys[0])

    def test_masking_preserves_singular_values(self):
        rng = np.random.default_rng(2)
        h = {f"p{k}": rng.normal(size=(10, f)) for k, f in enumerate((3, 4))}
        keys = fedsvd_keygen(10, [3, 4], seed=3)
        masked = sum(fedsvd_mask(h[f"p{k}"], keys[k]) for k in range(2))
        raw = np.hstack(list(h.values()))
        s_masked = np.linalg.svd(masked, compute_uv=False)
        s_raw = np.linalg.svd(raw, compute_uv=False)
        np.testing.assert_allclose(s_masked, s_raw, atol=1e-10)

    def test_server_rejects_inconsistent_rows(self):
        with pytest.raises(ProtocolError, match="shape"):
            fedsvd_server([np.ones((3, 2)), np.ones((4, 2))])
        with pytest.raises(ProtocolError, match="shape"):
            fedsvd_server([np.ones((3, 2)), np.ones((3, 3))])
        with pytest.raises(ProtocolError, match="no masked parts"):
            fedsvd_server([])

    def test_recover_inverts_row_mask(self):
        for n, block_size in [(5, None), (MASK_BLOCK + 44, None), (100, 40)]:
            keys = fedsvd_keygen(n, [2], seed=4, block_size=block_size)[0]
            u = np.random.default_rng(0).normal(size=(n, 3))
            np.testing.assert_allclose(fedsvd_recover(_dense_a(keys) @ u, keys), u, atol=1e-12)

    def test_mask_applies_the_dense_mask_block_by_block(self):
        for n, block_size in [(5, None), (MASK_BLOCK + 44, None), (100, 40)]:
            keys = fedsvd_keygen(n, [2, 3], seed=4, block_size=block_size)[1]
            h = np.random.default_rng(0).normal(size=(n, 3))
            np.testing.assert_allclose(fedsvd_mask(h, keys), _dense_a(keys) @ h @ keys[-1],
                                       atol=1e-12)

    def test_masked_upload_hides_raw_data(self):
        # [DERIVED] privacy smoke test: across seeds, the server-visible
        # block must not resemble the raw party block, also when the row
        # mask has more than one block.
        for n in (15, MASK_BLOCK + 44):
            failures = 0
            rng = np.random.default_rng(123)
            for seed in range(12):
                h = rng.normal(size=(n, 4))
                masked = fedsvd_mask(h, fedsvd_keygen(n, [4], seed=seed)[0])
                rel = np.linalg.norm(masked[:, :4] - h) / np.linalg.norm(h)
                if rel < 0.1:
                    failures += 1
            assert failures <= 1, n


class TestFedSvdProtocol:
    def test_matches_centralized_svd(self):
        # [DERIVED] oracle: the recovered left factor must reproduce the
        # left singular vectors of the (never-assembled) joint matrix,
        # computed here with an independent library routine.
        parties = _parties(n=20, sizes=(4, 3, 5), seed=0)
        overlap = _overlap(20)
        bus = MessageBus()
        rep = run_fedsvd(bus, "p0", parties, overlap, seed=7)
        raw = np.hstack(list(parties.values()))
        u_ref = np.linalg.svd(raw, full_matrices=False)[0]
        assert rep.matrix.shape == (20, 12)
        np.testing.assert_allclose(
            _align_columns(rep.matrix, u_ref), u_ref, atol=1e-8)
        assert rep.method == "fedsvd"

    def test_factor_is_as_wide_as_the_joint_features(self):
        # the server factorizes the n x sum(f) sum of the masked parts
        bus = MessageBus()
        run_fedsvd(bus, "p0", _parties(n=20, sizes=(4, 3, 5)), _overlap(20), seed=7)
        assert [r["shape"] for r in bus.messages_of_kind("factor_u")] == [[20, 12]]

    @pytest.mark.parametrize("block_size", [None, 40])
    def test_matches_centralized_svd_across_mask_blocks(self, block_size):
        n = 2 * MASK_BLOCK + 88
        parties = _parties(n=n, sizes=(6, 5), seed=3)
        raw = np.hstack(list(parties.values()))
        keys = fedsvd_keygen(n, [6, 5], seed=9, block_size=block_size)
        assert len(keys[0]) - 1 == -(-n // (block_size or MASK_BLOCK))
        masked = sum(fedsvd_mask(h, k) for h, k in zip(parties.values(), keys))
        s_masked = np.linalg.svd(masked, compute_uv=False)
        u_ref, s_ref, _ = np.linalg.svd(raw, full_matrices=False)
        np.testing.assert_allclose(s_masked, s_ref, rtol=0, atol=1e-10 * s_ref[0])
        rep = run_fedsvd(MessageBus(), "p0", parties, _overlap(n), seed=9,
                         params=FrlParams(block_size=block_size))
        assert rep.matrix.shape == (n, 11)
        np.testing.assert_allclose(_align_columns(rep.matrix, u_ref), u_ref, atol=1e-8)

    def test_mask_keys_carry_the_blocks_not_a_dense_mask(self):
        n, sizes = 1200, (16, 10)
        bus = MessageBus()
        run_fedsvd(bus, "p0", _parties(n=n, sizes=sizes), _overlap(n), seed=0)
        records = bus.messages_of_kind("mask_keys")
        assert len(records) == len(sizes)
        total_f = sum(sizes)
        for rec, f in zip(records, sizes):
            *blocks, b_k = rec["shape"]
            assert blocks == [[MASK_BLOCK] * 2] * 4 + [[176, 176]]
            assert b_k == [f, total_f]
            elems = sum(int(np.prod(s)) for s in rec["shape"])
            assert elems <= n * MASK_BLOCK + total_f ** 2 < n * n

    def test_large_overlap_never_forms_a_dense_mask(self):
        # a dense 3000 x 3000 mask alone would take 72 MB
        n = 3000
        parties = _parties(n=n, sizes=(8, 8), seed=1)
        tracemalloc.start()
        try:
            rep = run_fedsvd(MessageBus(), "p0", parties, _overlap(n), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.matrix.shape == (n, 16)
        assert peak < 16_000_000  # the mask blocks themselves are 6 MB

    def test_rank_truncation(self):
        parties = _parties(n=12, sizes=(3, 3), seed=1)
        rep = run_fedsvd(MessageBus(), "p0", parties, _overlap(12), seed=2,
                         params=FrlParams(rank=4))
        assert rep.matrix.shape == (12, 4)

    def test_server_never_sees_raw_blocks(self):
        parties = _parties(n=10, sizes=(3, 3), seed=5)
        bus = MessageBus()
        run_fedsvd(bus, "p0", parties, _overlap(10), seed=6)
        kinds_to_server = {r["kind"] for r in bus.messages_to("server")}
        assert kinds_to_server == {"masked_part"}
        # the factor goes to the task party only
        assert {r["to"] for r in bus.messages_of_kind("factor_u")} == {"p0"}

    def test_unknown_task_party(self):
        with pytest.raises(ProtocolError, match="task party"):
            run_fedsvd(MessageBus(), "ghost", _parties(), _overlap(20), seed=0)

    def test_row_count_mismatch(self):
        parties = _parties(n=20)
        with pytest.raises(ProtocolError, match="one row per"):
            run_fedsvd(MessageBus(), "p0", parties, _overlap(19), seed=0)

    def test_vfedpca_row_count_mismatch(self):
        # a 9-row party in a 10-row overlap is caught before any local
        # iteration, as run_fedsvd catches it
        parties = _parties(n=10)
        parties["p1"] = parties["p1"][:9]
        bus = MessageBus()
        with pytest.raises(ProtocolError, match="one row per"):
            run_vfedpca(bus, "p0", parties, _overlap(10), seed=0)
        assert not bus.trace


class TestVFedPcaSteps:
    def test_sample_gram_shape_and_scale(self):
        h = np.random.default_rng(0).normal(size=(6, 3))
        g = sample_gram(h)
        np.testing.assert_allclose(g, (h @ h.T) / 3.0, atol=1e-14)

    def test_local_share_is_unit_eigen_estimate(self):
        h = np.random.default_rng(1).normal(size=(8, 4))
        init = np.ones(8) / np.sqrt(8)
        share = vfedpca_local(h, iters=200, init=init)
        assert share.value >= 0
        np.testing.assert_allclose(np.linalg.norm(share.vector), 1.0, atol=1e-10)
        w, v = np.linalg.eigh(sample_gram(h))
        assert abs(abs(share.vector @ v[:, -1]) - 1.0) < 1e-8
        assert abs(share.value - w[-1]) < 1e-8

    def test_local_share_never_forms_the_gram(self):
        # a 3000 x 8 block: the dense Gram would take 72 MB
        rng = np.random.default_rng(5)
        h = rng.normal(size=(3000, 8)) * np.array([4.0] + [1.0] * 7)
        init = rng.standard_normal(3000)
        tracemalloc.start()
        try:
            share = vfedpca_local(h, iters=60, init=init)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        w, v = np.linalg.eigh(sample_gram(h))
        top = v[:, -1] * np.sign(v[:, -1] @ share.vector)
        np.testing.assert_allclose(share.vector, top, rtol=0, atol=1e-10)
        assert abs(share.value - w[-1]) <= 1e-10 * w[-1]
        assert not share.flagged

    def test_zero_block_share(self):
        init = np.array([3.0, 0.0, 4.0])
        share = vfedpca_local(np.zeros((3, 2)), iters=10, init=init)
        assert share.value == 0.0 and share.flagged
        np.testing.assert_array_equal(share.vector, init / 5.0)

    def test_aggregate_exact_weights(self):
        v1 = np.array([1.0, 0.0])
        v2 = np.array([0.0, 1.0])
        u = vfedpca_aggregate([EigenShare(v1, 2.0), EigenShare(v2, 3.0)])
        np.testing.assert_allclose(u, [0.4, 0.6], atol=1e-15)

    def test_aggregate_sign_alignment(self):
        v = np.array([0.6, 0.8])
        u = vfedpca_aggregate([EigenShare(v, 1.0), EigenShare(-v, 1.0)])
        np.testing.assert_allclose(u, v, atol=1e-15)

    def test_aggregate_degenerate_inputs(self):
        with pytest.raises(ProtocolError, match="no eigenvector"):
            vfedpca_aggregate([])
        with pytest.raises(ProtocolError, match="zero"):
            vfedpca_aggregate([EigenShare(np.ones(2), 0.0)])

    def test_reconstruct_length_mismatch(self):
        with pytest.raises(ProtocolError, match="length"):
            vfedpca_reconstruct(np.ones((3, 2)), np.ones(4))

    def test_reconstruct_orthogonal_direction(self):
        h = np.array([[1.0], [0.0]])
        u = np.array([0.0, 1.0])
        with pytest.raises(ProtocolError, match="orthogonal"):
            vfedpca_reconstruct(h, u)

    def test_reconstruct_unit_projector(self):
        h = np.random.default_rng(2).normal(size=(5, 3))
        u = np.random.default_rng(3).normal(size=5)
        out = vfedpca_reconstruct(h, u)
        m = h.T @ u
        proj = np.outer(m, m)
        np.testing.assert_allclose(out, h @ (proj / np.linalg.norm(proj)), atol=1e-12)


class TestVFedPcaProtocol:
    def test_single_party_recovers_top_eigenvector(self):
        # [DERIVED] with one party, the aggregate direction must converge to
        # the top eigenvector of its own Gram matrix (independent oracle:
        # numpy's dense symmetric eigensolver).
        rng = np.random.default_rng(4)
        h = rng.normal(size=(25, 6))
        parties = {"p0": h}
        bus = MessageBus()
        rep = run_vfedpca(bus, "p0", parties, _overlap(25), seed=0,
                          params=FrlParams(iter_num=300))
        w, v = np.linalg.eigh(sample_gram(h))
        agg = [r for r in bus.trace if r["kind"] == "aggregate_vector"]
        assert agg, "server must broadcast the aggregate direction"
        expected = vfedpca_reconstruct(h, v[:, -1])
        got = rep.matrix
        # reconstruction is sign-invariant in u, so compare directly
        np.testing.assert_allclose(got, expected, atol=1e-6)
        assert rep.method == "vfedpca"

    def test_warm_start_round_count(self):
        parties = _parties(n=10, sizes=(3, 3), seed=6)
        bus = MessageBus()
        run_vfedpca(bus, "p0", parties, _overlap(10), seed=1,
                    params=FrlParams(iter_num=25, period_num=10))
        # 25 iterations at period 10 -> rounds of 10, 10, 5 -> 3 uploads/party
        shares = bus.messages_of_kind("eigen_share")
        assert len(shares) == 6

    def test_no_warm_start_single_round(self):
        # a period of at least iter_num is one round: one upload per party
        parties = _parties(n=10, sizes=(3, 3), seed=6)
        bus = MessageBus()
        run_vfedpca(bus, "p0", parties, _overlap(10), seed=1,
                    params=FrlParams(iter_num=25, period_num=25))
        assert len(bus.messages_of_kind("eigen_share")) == 2

    def test_unsettled_local_runs_are_counted(self):
        # two near-equal top eigenvalues and 3 local iterations: no settling
        h = np.zeros((10, 2))
        h[0, 0], h[1, 1] = 1.0, 0.999
        parties = {"p0": h, "p1": h.copy()}
        rep = run_vfedpca(MessageBus(), "p0", parties, _overlap(10), seed=2,
                          params=FrlParams(iter_num=3, period_num=10))
        assert rep.flagged > 0

    def test_converged_run_counts_nothing(self):
        parties = _parties(n=25, sizes=(6, 6), seed=4)
        parties["p1"][:, 0] *= 5.0
        parties["p0"][:, 0] = parties["p1"][:, 0]
        rep = run_vfedpca(MessageBus(), "p0", parties, _overlap(25), seed=0,
                          params=FrlParams(iter_num=300, period_num=100))
        assert rep.flagged == 0
        fed = run_fedsvd(MessageBus(), "p0", parties, _overlap(25), seed=0)
        assert fed.flagged == 0

    def test_deterministic_given_seed(self):
        parties = _parties(n=10, sizes=(3, 4), seed=8)
        r1 = run_vfedpca(MessageBus(), "p0", parties, _overlap(10), seed=5)
        r2 = run_vfedpca(MessageBus(), "p0", parties, _overlap(10), seed=5)
        np.testing.assert_array_equal(r1.matrix, r2.matrix)


class TestRunFrl:
    def test_begin_marker_first(self):
        parties = _parties(n=10, sizes=(3, 3), seed=9)
        bus = MessageBus()
        run_frl(bus, FrlParams(), "p0", parties, _overlap(10), seed=0)
        assert bus.trace[0]["kind"] == "frl_begin"
        assert bus.trace[0]["from"] == "p0"

    def test_dispatch_and_unknown_method(self):
        parties = _parties(n=10, sizes=(3, 3), seed=9)
        rep = run_frl(MessageBus(), FrlParams(method="vfedpca"), "p0", parties,
                      _overlap(10), seed=0)
        assert rep.method == "vfedpca"
        rep = run_frl(MessageBus(), FrlParams(rank=2), "p0", parties, _overlap(10), seed=0)
        assert (rep.method, rep.matrix.shape) == ("fedsvd", (10, 2))
        with pytest.raises(ConfigError, match="unknown FRL method"):
            FrlParams(method="pca")

    def test_representation_rejects_bad_rows(self):
        from vfkt.frl import FederatedRepresentation

        with pytest.raises(ProtocolError, match="rows"):
            FederatedRepresentation(matrix=np.ones((3, 2)), method="fedsvd",
                                    overlap=_overlap(4))
        with pytest.raises(ProtocolError, match="non-finite"):
            FederatedRepresentation(matrix=np.full((4, 2), np.nan),
                                    method="fedsvd", overlap=_overlap(4))
