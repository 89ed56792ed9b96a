"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. Expected values come
from independent oracles implemented in this file (recursive Merkle
construction, exhaustive proof-of-work scans, a hand-rolled validation
ladder, raw hashlib arithmetic), never from the code paths under test.
"""

import hashlib
import random
import statistics
from pathlib import Path

from advertsim.cli import load_scenario
from advertsim.core import (
    Address,
    Block,
    BlockHeader,
    CoinbaseTransaction,
    CompactTarget,
    Hash,
    Transaction,
    merkle_root,
    serialize,
    serialized_size,
    txid,
)
from advertsim.mining import (
    BlockTemplate,
    HashRate,
    evaluations_used,
    mine,
    sample_mining_time,
)
from advertsim.metrics import (
    propagation_latency,
    size_report,
    wasted_hashpower,
)
from advertsim.protocol import (
    Advert,
    AdvertRegistry,
    Mempool,
    Reason,
    SelectionPolicy,
    make_advert,
    make_block_seed,
    reconstruct_block,
    validate_block,
)
from advertsim.simnet import RelayStrategy, Scenario, run_scenario

from conftest import MINE_BUDGET, advertised_block, funded_tx, rand_address, rand_hash

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


# --- independent oracles ----------------------------------------------------


def dsha(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def merkle_oracle(leaves):
    if len(leaves) == 1:
        return leaves[0]
    if len(leaves) % 2 == 1:
        leaves = list(leaves) + [leaves[-1]]
    return merkle_oracle([dsha(leaves[i] + leaves[i + 1]) for i in range(0, len(leaves), 2)])


def pow_ok_oracle(header) -> bool:
    bits = header.difficulty_target.leading_zero_bits
    if bits == 0:
        return True
    return int.from_bytes(dsha(serialize(header)), "big") < (1 << (256 - bits))


def ladder_oracle(block, registry, chain) -> Reason:
    """The seven acceptance checks, in order, reimplemented from scratch."""
    advert = registry.entries.get(
        (block.coinbase.coinbase_address, block.header.prev_block_hash)
    )
    if advert is None:
        return Reason.NO_MATCHING_ADVERT
    if advert.coinbase_address != block.coinbase.coinbase_address:
        return Reason.COINBASE_MISMATCH
    if block.header.prev_block_hash not in chain.heights:
        return Reason.WRONG_PREV_HASH
    if not pow_ok_oracle(block.header):
        return Reason.POW_FAIL
    if tuple(txid(t) for t in block.transactions) != advert.tx_hashes:
        return Reason.TX_LIST_MISMATCH
    leaves = [txid(block.coinbase)] + [txid(t) for t in block.transactions]
    if merkle_oracle(leaves) != block.header.merkle_root:
        return Reason.MERKLE_MISMATCH
    spent = set()
    for tx in block.transactions:
        total_in = 0
        for op in tx.inputs:
            if op in spent or op not in chain.utxo:
                return Reason.INVALID_TX
            spent.add(op)
            total_in += chain.utxo[op][1]
        if total_in < sum(v for _, v in tx.outputs):
            return Reason.INVALID_TX
    return Reason.OK


def remine_header(header, merkle=None) -> BlockHeader:
    """Scan nonces from zero with raw hashlib until the target is met."""
    root = merkle if merkle is not None else header.merkle_root
    nonce = 0
    while True:
        candidate = BlockHeader(
            version=header.version,
            prev_block_hash=header.prev_block_hash,
            merkle_root=root,
            timestamp=header.timestamp,
            difficulty_target=header.difficulty_target,
            nonce=nonce,
        )
        if pow_ok_oracle(candidate):
            return candidate
        nonce += 1


# --- criteria ----------------------------------------------------------------


def test_criterion_size_ratio():
    """Block over advert is about fifteen at 2000 txs of 500 B."""
    txs = tuple(
        Transaction(
            inputs=((Hash(int.to_bytes(i, 32, "big")), 0),),
            outputs=((Address(b"\x01" * 20), 1),),
            nominal_size_bytes=500,
        )
        for i in range(2000)
    )
    cb = CoinbaseTransaction(coinbase_address=Address(b"\x02" * 20), reward=50, nominal_size_bytes=200)
    header = BlockHeader(
        version=1,
        prev_block_hash=Hash(b"\x03" * 32),
        merkle_root=merkle_root([txid(cb)] + [txid(t) for t in txs]),
        timestamp=0,
        difficulty_target=CompactTarget(0),
        nonce=0,
    )
    block = Block(header=header, coinbase=cb, transactions=txs)
    advert = Advert(
        coinbase_address=cb.coinbase_address,
        tx_hashes=tuple(txid(t) for t in txs),
        prev_block_hash=header.prev_block_hash,
    )
    ratio = serialized_size(block) / serialized_size(advert)
    assert serialized_size(block) == 1_000_280
    assert serialized_size(advert) == 64_060
    assert 15 <= ratio <= 16
    report(f"size-ratio (block/advert = {ratio:.3f} in [15, 16])")


def test_criterion_capacity():
    """Greedy fill under the 1 MB cap lands at 1999 transactions."""
    rng = random.Random(101)
    utxo = {}
    pool = Mempool()
    for _ in range(3000):
        pool.insert_unchecked(funded_tx(rng, utxo, size=500))
    advert = make_advert(
        rand_address(rng),
        rand_hash(rng),
        pool,
        SelectionPolicy(max_block_size_bytes=1_000_000, coinbase_size_bytes=200),
    )
    assert 1999 <= len(advert.tx_hashes) <= 2000
    assert len(advert.tx_hashes) == 1999
    report(f"capacity (greedy fill |L| = {len(advert.tx_hashes)})")


def test_criterion_roundtrip_suite():
    """500 advertise-mine-seed-reconstruct-validate cycles, exact roundtrip."""
    rng = random.Random(202)
    for i in range(500):
        bundle = advertised_block(rng, bits=5, ntx=rng.randrange(1, 8))
        seed = make_block_seed(bundle.block)
        rec = reconstruct_block(seed, bundle.registry, bundle.mempool.txs)
        assert rec.ok, f"cycle {i}: reconstruction failed with {rec.reason}"
        assert rec.block == bundle.block, f"cycle {i}: reconstruction not exact"
        assert tuple(txid(t) for t in rec.block.transactions) == bundle.advert.tx_hashes
        verdict = validate_block(rec.block, bundle.registry, bundle.chain)
        assert verdict is Reason.OK, f"cycle {i}: verdict {verdict}"
    report("roundtrip (500 cycles OK, blocks reproduced exactly)")


def _mutations(rng, bundle):
    """Yield (name, mutated block) pairs; each one single-field."""
    block = bundle.block

    cb2 = CoinbaseTransaction(coinbase_address=rand_address(rng), reward=50)
    yield "flip-coinbase", Block(header=block.header, coinbase=cb2, transactions=block.transactions)

    hdr = block.header
    yield "change-prev-hash", Block(
        header=BlockHeader(
            version=hdr.version,
            prev_block_hash=rand_hash(rng),
            merkle_root=hdr.merkle_root,
            timestamp=hdr.timestamp,
            difficulty_target=hdr.difficulty_target,
            nonce=hdr.nonce,
        ),
        coinbase=block.coinbase,
        transactions=block.transactions,
    )

    nonce = hdr.nonce + 1
    while True:
        broken = BlockHeader(
            version=hdr.version,
            prev_block_hash=hdr.prev_block_hash,
            merkle_root=hdr.merkle_root,
            timestamp=hdr.timestamp,
            difficulty_target=hdr.difficulty_target,
            nonce=nonce,
        )
        if not pow_ok_oracle(broken):
            break
        nonce += 1
    yield "break-pow", Block(header=broken, coinbase=block.coinbase, transactions=block.transactions)

    drop_at = rng.randrange(len(block.transactions))
    dropped = block.transactions[:drop_at] + block.transactions[drop_at + 1 :]
    yield "drop-tx", Block(header=hdr, coinbase=block.coinbase, transactions=dropped)

    extra = funded_tx(rng, bundle.chain.utxo)
    yield "append-tx", Block(
        header=hdr, coinbase=block.coinbase, transactions=block.transactions + (extra,)
    )

    i = rng.randrange(len(block.transactions) - 1)
    reordered = list(block.transactions)
    reordered[i], reordered[i + 1] = reordered[i + 1], reordered[i]
    yield "reorder-txs", Block(header=hdr, coinbase=block.coinbase, transactions=tuple(reordered))

    j = rng.randrange(len(block.transactions))
    substituted = list(block.transactions)
    substituted[j] = funded_tx(rng, bundle.chain.utxo)
    new_root = merkle_root([txid(block.coinbase)] + [txid(t) for t in substituted])
    yield "substitute-tx", Block(
        header=remine_header(hdr, merkle=new_root),
        coinbase=block.coinbase,
        transactions=tuple(substituted),
    )

    corrupt = Hash(bytes([hdr.merkle_root[0] ^ 0x5A]) + hdr.merkle_root[1:])
    yield "corrupt-merkle", Block(
        header=remine_header(hdr, merkle=corrupt),
        coinbase=block.coinbase,
        transactions=block.transactions,
    )


EXPECTED_MUTATION_VERDICTS = {
    "flip-coinbase": Reason.NO_MATCHING_ADVERT,  # new address has no advert
    "change-prev-hash": Reason.NO_MATCHING_ADVERT,  # advert keyed on (c, h)
    "break-pow": Reason.POW_FAIL,
    "drop-tx": Reason.TX_LIST_MISMATCH,
    "append-tx": Reason.TX_LIST_MISMATCH,
    "reorder-txs": Reason.TX_LIST_MISMATCH,
    "substitute-tx": Reason.TX_LIST_MISMATCH,
    "corrupt-merkle": Reason.MERKLE_MISMATCH,
}


def test_criterion_mutation_suite():
    """Every single-field mutation class draws its oracle-predicted verdict."""
    rng = random.Random(303)
    checked = {name: 0 for name in EXPECTED_MUTATION_VERDICTS}
    for _ in range(100):
        bundle = advertised_block(rng, bits=4, ntx=rng.randrange(2, 7))
        honest = validate_block(bundle.block, bundle.registry, bundle.chain)
        assert honest is Reason.OK
        for name, mutated in _mutations(rng, bundle):
            expected = ladder_oracle(mutated, bundle.registry, bundle.chain)
            assert expected is EXPECTED_MUTATION_VERDICTS[name], (
                f"{name}: oracle predicted {expected}, class expects "
                f"{EXPECTED_MUTATION_VERDICTS[name]}"
            )
            got = validate_block(mutated, bundle.registry, bundle.chain)
            assert got is expected, f"{name}: got {got}, oracle says {expected}"
            assert not got.accepted
            checked[name] += 1
    assert all(count == 100 for count in checked.values())
    report(f"mutation ({len(checked)} classes x 100 bases, verdicts match the oracle)")


def test_criterion_merkle_oracle_equivalence():
    """Tree construction agrees with the recursive oracle on lengths 1..8."""
    rng = random.Random(404)
    cases = 0
    for _ in range(1000):
        leaves = [Hash(rng.randbytes(32)) for _ in range(rng.randrange(1, 9))]
        assert merkle_root(leaves) == merkle_oracle(leaves)
        cases += 1
    for n in range(1, 9):  # and every length explicitly
        leaves = [Hash(rng.randbytes(32)) for _ in range(n)]
        assert merkle_root(leaves) == merkle_oracle(leaves)
        cases += 1
    report(f"merkle-oracle ({cases} random cases, lengths 1..8)")


def test_criterion_pow_statistics():
    """Search effort matches 2^bits; sampled times match 2^bits / rate."""
    rng = random.Random(505)
    trials = {4: 1000, 6: 700, 8: 600}
    for bits, n in trials.items():
        evals = []
        for _ in range(n):
            cb = CoinbaseTransaction(coinbase_address=rand_address(rng), reward=50)
            t = BlockTemplate(
                prev_block_hash=rand_hash(rng),
                coinbase=cb,
                transactions=(),
                difficulty_target=CompactTarget(bits),
            )
            block = mine(t, MINE_BUDGET)
            assert block is not None
            evals.append(evaluations_used(t, block))
        mean = statistics.mean(evals)
        expected = 2**bits
        assert abs(mean - expected) / expected < 0.10, f"bits={bits}: mean {mean}"

    srng = random.Random(606)
    samples = [
        sample_mining_time(HashRate(100.0), CompactTarget(10), srng) for _ in range(100_000)
    ]
    mean = statistics.mean(samples)
    assert abs(mean - 10.24) / 10.24 < 0.02
    report(
        "pow-statistics (mean evaluations within 10% of 2^b for b in {4,6,8}; "
        f"sampled mean {mean:.3f} s within 2% of 10.24 s)"
    )


def test_criterion_determinism():
    """The shipped 16-node regime scenario is bitwise reproducible."""
    sc = load_scenario(REPO_ROOT / "scenarios" / "regime_16node.json")
    first = run_scenario(sc)
    second = run_scenario(sc)
    assert list(first.lines()) == list(second.lines())
    assert first.sha256() == second.sha256()
    report(f"determinism (two regime runs identical, sha256 {first.sha256()[:16]}...)")


def _thesis_scenario(seed, strategy):
    return Scenario(
        node_count=16,
        topology={"kind": "random_regular", "degree": 4},
        hash_rate=10.0,
        difficulty_bits=11,
        tx_rate=5.0,
        tx_size_bytes=500,
        coinbase_size_bytes=200,
        initial_mempool_txs=24000,
        horizon_seconds=120.0,
        seed=seed,
        relay_strategy=strategy,
        block_size_cap_bytes=1_000_000,
        name="thesis",
    )


def test_criterion_latency_thesis():
    """Advertise-ahead beats full-block relay on every paired seed."""
    seeds = range(1, 11)
    for seed in seeds:
        results = {}
        for strategy in RelayStrategy:
            log = run_scenario(_thesis_scenario(seed, strategy))
            prop = propagation_latency(log)
            waste = wasted_hashpower(log)
            sizes = size_report(log)
            assert prop.samples, f"seed {seed} {strategy}: no blocks adopted"
            results[strategy] = (prop.mean, waste.fraction, sizes.mean_critical_path)
        adv, base, late = (
            results[RelayStrategy.ADVERT_PROTOCOL],
            results[RelayStrategy.BASELINE_FULL_BLOCK],
            results[RelayStrategy.LATE_ADVERT],
        )
        assert adv[0] < base[0], f"seed {seed}: latency {adv[0]} !< {base[0]}"
        assert adv[1] < base[1], f"seed {seed}: waste {adv[1]} !< {base[1]}"
        assert adv[2] < late[2] < base[2], (
            f"seed {seed}: critical-path bytes not ordered: {adv[2]}, {late[2]}, {base[2]}"
        )
    report(
        "latency-thesis (10 consecutive paired seeds: advert < baseline on "
        "latency and waste; late-advert between on critical-path bytes)"
    )


def test_criterion_advert_uniqueness():
    """Random registration storms never displace a first advert."""
    rng = random.Random(707)
    for _ in range(100):
        registry = AdvertRegistry()
        expected = {}
        for _ in range(100):
            addr = Address(bytes([rng.randrange(5)]) * 20)
            tip = Hash(bytes([rng.randrange(5)]) * 32)
            advert = Advert(
                coinbase_address=addr,
                tx_hashes=tuple(
                    sorted({rand_hash(rng) for _ in range(rng.randrange(3))}, key=bytes)
                ),
                prev_block_hash=tip,
            )
            registry.register(advert)
            expected.setdefault((addr, tip), advert)
        assert registry.entries == expected
        assert len(registry.entries) == len({k for k in expected})
    report("advert-uniqueness (10,000 registrations, first arrival always retained)")
