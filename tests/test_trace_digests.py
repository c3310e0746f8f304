"""Pinned SHA-256 digests of synthesized trace columns.

The trace generator's output is part of every result's identity: the
content-addressed store, the golden corpus and the differential oracle all
assume that a (profile, instruction count, seed) triple yields the same
columns forever.  These digests were recorded from the generator *before*
its hot loop was flattened (the object-per-step implementation), so any
rewrite of the synthesis path that changes a single draw, operand or column
byte fails here.

Coverage:

* every registered profile at seeds 1 and 7 (3k instructions), which
  includes the parallel profiles' thread switches;
* one inline profile per :class:`~repro.verify.fuzz.WorkloadFuzzer`
  regime, sampled from the regime with a pinned seed.  These reach the
  edge probabilities 0.0 and 1.0 (where ``chance`` must not draw) and a
  one-word hot set;
* a few very short traces, which pin the startup items.
"""

import hashlib
from random import Random

import pytest

from repro.verify.fuzz import REGIME_SAMPLERS
from repro.workload import (
    BenchmarkProfile,
    benchmark_names,
    generate_trace,
    get_profile,
)
from repro.workload.profiles import PARALLEL_BENCHMARKS, SPEC_BENCHMARKS

NUM_INSTRUCTIONS = 3000


def column_digest(trace) -> str:
    digest = hashlib.sha256()
    for name, data in trace.column_bytes().items():
        digest.update(name.encode())
        digest.update(data)
    return digest.hexdigest()


#: (profile, seed) -> digest of a 3k-instruction trace.
PROFILE_DIGESTS = {
    ('astar', 1): 'b0104717228828b27792ff2599e30df86d68f7324ba57365396544f164ea5310',
    ('astar', 7): '03da70165d6f87168064e309d5a59eb59537f0c390f6f88a71e7bd872f656954',
    ('bzip', 1): 'd29d8b9c1ddf6e48ff46923ccee7f49d65fea8bb7a4d04fa515e088158f4c1b2',
    ('bzip', 7): '36e6456d28e2c6ed068b7a2ce6d18ab601a3e02b9281b3084722ac140802a07c',
    ('gcc', 1): '628d0a51d2f9dcf2f72b26568cdc50fac1c88fc8e0e2939958ad4916910c34c5',
    ('gcc', 7): '572e6a3d68a0fb330a88dae6cd97274727bffdf70c2d1f5d95de9298d663afc0',
    ('gobmk', 1): 'bc1154cf4092d9b5f35407c7150ee54fa8169158f682c68281a9a88fd32fe5e1',
    ('gobmk', 7): 'eaa14852b70cb9ff939fd07fe70845a1c00d7d2239ba6626ec3f02bfd996bfee',
    ('hmmer', 1): '712c73d83974eaa58d52efaa6f8aefe648c6ebc4ea83f48ec125f2dfd7b0f152',
    ('hmmer', 7): 'b27105594fb20c46b76f10d3231972f062aca644bc2afab26a1b7bbdb2fd8bb3',
    ('libquantum', 1): '0c21449769374695228545c5e5aadaeb50ac5833799ec2d4bad42f69e1339a85',
    ('libquantum', 7): '0335484d5697166739d100d03280b53cc37e0d13718920849b78ceb0a9218915',
    ('mcf', 1): '15bfb4a50392226b691d403d4c92d10f6be52ba46de672623953e65bc56aa667',
    ('mcf', 7): '1adc0ef3794b70eec717ac0fcbeba7bcc9e6ec19905986ad3641ddf147ba4eba',
    ('omnetpp', 1): 'dc049271460599488b205eca0449e9b69857a179904f3569f17ac55f43109771',
    ('omnetpp', 7): 'e6b7e82cf6c9658387171aafce1f777d20067229c81346715fe5316e34110964',
    ('water', 1): 'da6be6a411092c9923c109299c3cb2bbbf8cc8de94b10f3e137c0b0ec2651281',
    ('water', 7): '98583231586fc645851c37954481afde2eef35ef39ecae04cbd6e7730d6ce79b',
    ('ocean', 1): '2e12dafdcdf4dd1c9f2950c347cf7b08435934846cdd567a049aafa05550b7c6',
    ('ocean', 7): '5b8632d2e8d709cb48ded8366e1b24e85d84180b81c9188c6983a2310fe1576e',
    ('blackscholes', 1): '51a3c95942194fedfcf380841b35058cb4c5f72c230cbcff8bfea6bb82c6e4e3',
    ('blackscholes', 7): '22ca786c5ba97f8c9e83258459c1029768c2e0191ac8486d949fee667ce95fb2',
    ('streamcluster', 1): 'f42b4b357232d0dbc191ff2203591c1d6779dd453676566ea8821f02bed639bd',
    ('streamcluster', 7): 'ce3d0fda7bc46ba40a1b0c49264a4848359d8643c1cc70b3b268bdfb300433ef',
    ('fluidanimate', 1): '87cbe6b80f5170888a3cf65dd14eea323c3e8d5e57fc2366925f90fcd50c1fbd',
    ('fluidanimate', 7): 'a49c9de886d1057525c822fabdb2df14aee1be718cd7b3426c5dbc990f0e06cc',
}

#: regime -> (sampler seed, digest of a 3k-instruction trace at seed 3).
#: ``alias_dense``'s seed is the first whose sample has ``hot_set_words=1``.
REGIME_DIGESTS = {
    'baseline': (0, '3ed7645782684b678e14b2a38470f7861a63c17adb46833d2d2cf0c1a30a5695'),
    'mem_all': (0, '8895943f28f4294ab9d6858afd6b4727da272794c1afabab17bccbdde97da41c'),
    'mem_none': (0, '82265f63be078fa7b34850ce90a124906727c654d62947354c063260e63c6874'),
    'alias_dense': (1, '779d8b173b1f80e0f08e7220b686a54ede498a6f63230bfb3d11dbb4b166e9d3'),
    'burst_gap': (0, 'b695708bec92d2508252f483fce404747841b0946695baea47d70ea8ade124af'),
    'inv_storm': (0, 'a74fbb7a50d5875a049974e97f44b27f39afc38358dc1d9e75ba03f45be2cbc3'),
    'smt_edge': (0, '84041e96ab79eaad2990b0b1a93a151f8b1cd624f7e21ec23b0bf1b48ce5dd05'),
    'queue_tiny': (0, 'b56e0b613d6a293a2d09ce114de9c82ebb09499f28849e08e94e2798aac7c5a8'),
    'queue_infinite': (0, '9c96e75604e16c503db2792f7cb1a76e0f8100351d495fa7419c6aaf927d6873'),
    'stack_storm': (0, '162af5ac2e1a1686f466d2c6b7e96e14349edb6ab598af29e1ef8cbf085e0bbb'),
    'alloc_storm': (0, '683a94f9e1f73c2d48ab9fdca315720e193d6ca65a9fefbd4d4cad637f65ff4e'),
    'taint_flood': (0, '57d04d08dbd9aea0b96f36f813910b688ff489bfc096e12ab5e1152a13a3e598'),
    'blocking': (0, 'a41813c14ca7b3e466bef81292989c9e6ef5f6f4c9e8464cf81dc0431297bad6'),
    'no_fade': (0, 'a45ebd2508b18e65e34413ef826790d4f10fa7c63fce9e27a7b79c2063fbcb37'),
}

REGIME_TRACE_SEED = 3

#: (profile, instructions) -> digest of a very short trace at seed 3: the
#: startup path (globals MALLOC, main-frame CALL) and the first few items.
SHORT_DIGESTS = {
    ("gcc", 1): "4f5cdcd76cd3fca0d090d0b0433074165011bf4a5364bfa88c5cff4b8fbf2f30",
    ("gcc", 2): "57cc4e2493ca33100eb1938d8aa73ada5587fcc9a4e054728951ddc2cf141f7e",
    ("gcc", 50): "1d0b6cbe5391db1008c1770752fbf5022b3822fb595ec585ac1547280f04c25b",
    ("water", 1): "f4dbd79bb578359bdc570e6b1193792b35169019351023e57d83ca382ed37c1e",
    ("water", 2): "e29cf20fa599d5f75c6619d56bf5f1fb43631ee0d1caee66f985b6a5b8b472cf",
    ("water", 50): "8c63f477e444f1181c6caa8d080acedc465a804c586bc5ce9a98dd02387f189d",
}


def regime_profile(regime: str, sampler_seed: int) -> BenchmarkProfile:
    fields, _, _ = REGIME_SAMPLERS[regime](Random(sampler_seed))
    return BenchmarkProfile(name=f"digest/{regime}", **fields)


def test_every_builtin_profile_is_pinned():
    builtin = set(SPEC_BENCHMARKS + PARALLEL_BENCHMARKS)
    assert {name for name, _ in PROFILE_DIGESTS} == builtin
    assert builtin <= set(benchmark_names())


def test_every_fuzzer_regime_is_pinned():
    assert set(REGIME_DIGESTS) == set(REGIME_SAMPLERS)


@pytest.mark.parametrize("name,seed", sorted(PROFILE_DIGESTS))
def test_registered_profile_trace_digest(name, seed):
    trace = generate_trace(get_profile(name), NUM_INSTRUCTIONS, seed=seed)
    assert trace.num_instructions == NUM_INSTRUCTIONS
    assert column_digest(trace) == PROFILE_DIGESTS[(name, seed)]


@pytest.mark.parametrize("regime", sorted(REGIME_DIGESTS))
def test_fuzzer_regime_trace_digest(regime):
    sampler_seed, expected = REGIME_DIGESTS[regime]
    profile = regime_profile(regime, sampler_seed)
    trace = generate_trace(profile, NUM_INSTRUCTIONS, seed=REGIME_TRACE_SEED)
    assert column_digest(trace) == expected


@pytest.mark.parametrize("name,count", sorted(SHORT_DIGESTS))
def test_short_trace_digest(name, count):
    trace = generate_trace(get_profile(name), count, seed=REGIME_TRACE_SEED)
    assert column_digest(trace) == SHORT_DIGESTS[(name, count)]


def test_empty_request_still_emits_the_main_frame_call():
    profile = get_profile("gcc")
    trace = generate_trace(profile, 0, seed=REGIME_TRACE_SEED)
    assert trace.num_instructions == 1
    assert column_digest(trace) == SHORT_DIGESTS[("gcc", 1)]


def test_regime_profiles_reach_the_edges():
    alias = regime_profile("alias_dense", REGIME_DIGESTS["alias_dense"][0])
    assert alias.hot_set_words == 1
    assert alias.locality == 1.0 and alias.page_locality == 1.0
    assert alias.stream_fraction == 0.0
    smt = regime_profile("smt_edge", REGIME_DIGESTS["smt_edge"][0])
    assert smt.dep_prob in (0.0, 1.0)
    mem_all = regime_profile("mem_all", REGIME_DIGESTS["mem_all"][0])
    assert mem_all.alu1_weight == 0.0 and mem_all.nop_weight == 0.0
