import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steppref.genclient as genclient
from steppref import synthworld
from steppref.cli import main
from steppref.corpus import Problem
from steppref.extraction import extract_answer
from steppref.genclient import (
    PromptError,
    ProviderError,
    ProviderHandle,
    SamplingConfig,
    ShortResponseError,
    sample,
    sample_batch,
)
from steppref.pipeline import build_rft
from steppref.rng import stable_seed
from steppref.synthworld import (
    SynthConfig,
    gen_problem,
    simulate_solution,
)

from conftest import correct_rationale, trace_with_error
from oracles import evaluate, question_ops


def synth_provider(eps=0.3, seed=0, **kw):
    return ProviderHandle.synthetic(SynthConfig(t=3, epsilon=eps, seed=seed), **kw)


class TestConfigs:
    def test_defaults_match_documented_sampling(self):
        cfg = SamplingConfig()
        assert cfg.n == 100
        assert cfg.temperature == 0.7

    def test_bad_values(self):
        with pytest.raises(ValueError):
            SamplingConfig(n=0)
        with pytest.raises(ValueError):
            SamplingConfig(temperature=-0.1)
        for temperature in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                SamplingConfig(temperature=temperature)

    def test_provider_needs_exactly_one_backend(self):
        with pytest.raises(ValueError):
            ProviderHandle()
        with pytest.raises(ValueError):
            ProviderHandle(endpoint_url="http://x", synth_config=SynthConfig())

    def test_max_in_flight_at_least_one(self):
        with pytest.raises(ValueError):
            ProviderHandle.http("http://x", max_in_flight=0)


class TestSyntheticProvider:
    def test_deterministic(self):
        provider = synth_provider(seed=7)
        p = gen_problem(provider.synth_config, 0)
        cfg = SamplingConfig(n=3, temperature=0.7, seed=7)
        a = sample(provider, p.question, cfg)
        b = sample(provider, p.question, cfg)
        assert a == b
        assert len(a) == 3

    def test_seed_changes_output(self):
        provider = synth_provider(seed=7)
        p = gen_problem(provider.synth_config, 0)
        a = sample(provider, p.question, SamplingConfig(n=5, seed=1))
        b = sample(provider, p.question, SamplingConfig(n=5, seed=2))
        assert a != b

    def test_temperature_zero_is_error_free(self):
        provider = synth_provider(eps=0.9, seed=3)
        p = gen_problem(provider.synth_config, 0)
        (text,) = sample(provider, p.question, SamplingConfig(n=1, temperature=0.0))
        assert extract_answer(text, p.style) == p.gold_answer

    def test_prefix_prompt_continues(self):
        provider = synth_provider(eps=0.0, seed=3)
        p = gen_problem(provider.synth_config, 0)
        gold = simulate_solution(p, provider.synth_config, 0).rationale
        prompt = p.question + "\n" + gold.steps[0]
        (text,) = sample(provider, prompt, SamplingConfig(n=1, temperature=0.7))
        assert text.splitlines()[0] == gold.steps[1]

    def test_unparseable_prompts_raise_prompt_error(self):
        provider = synth_provider(eps=0.0, seed=3)
        p = gen_problem(provider.synth_config, 0)
        gold = simulate_solution(p, provider.synth_config, 0).rationale
        wrong = trace_with_error(p, 1).steps
        bad_prompts = [
            "What is two plus two?",  # not a template question
            p.question + "\n" + gold.steps[0] + "\ntwo plus two is five.",  # step grammar
            p.question + "\n" + "\n".join(gold.steps * 2),  # more steps than the problem
            # the same faults after a step that already went wrong
            p.question + "\n" + wrong[0] + "\ntwo plus two is five.",
            p.question + "\n" + wrong[0] + "\n999+999=1998.",  # off the problem
            p.question + "\n" + "\n".join(wrong + wrong[-1:]),
            # an answer one digit longer than str() writes by default
            f"Start with {'9' * 4300}. Multiply by 3. What is the final value?",
        ]
        for prompt in bad_prompts:
            with pytest.raises(PromptError):
                sample(provider, prompt, SamplingConfig(n=2, seed=1))
        results = sample_batch(provider, [p.question] + bad_prompts, SamplingConfig(n=2))
        assert len(results[0]) == 2
        assert all(isinstance(r, PromptError) for r in results[1:])

    def test_nested_prefix_property(self):
        # First k completions of a larger draw equal the smaller draw.
        provider = synth_provider(eps=0.4, seed=5)
        p = gen_problem(provider.synth_config, 0)
        small = sample(provider, p.question, SamplingConfig(n=4, seed=9))
        large = sample(provider, p.question, SamplingConfig(n=12, seed=9))
        assert large[:4] == small


class TestHttpProvider:
    def test_collects_n_choices_across_capped_calls(self, stub_server):
        counter = {"i": 0}

        def respond(payload):
            n = min(int(payload["n"]), 2)  # server caps n at 2
            out = []
            for _ in range(n):
                out.append({"text": f"c{counter['i']}"})
                counter["i"] += 1
            return 200, {"choices": out}

        server = stub_server(respond)
        provider = ProviderHandle.http(server.url, "toy-model")
        got = sample(provider, "prompt", SamplingConfig(n=5, temperature=0.2, seed=1))
        assert got == [f"c{i}" for i in range(5)]
        assert len(server.calls) == 3
        assert server.calls[0]["model"] == "toy-model"
        assert server.calls[0]["seed"] == 1

    def test_follow_up_requests_advance_the_seed(self, stub_server):
        synthetic = synth_provider(eps=0.5, seed=2)

        def respond(payload):  # caps n at 2, draws with the posted seed
            cfg = SamplingConfig(n=min(int(payload["n"]), 2),
                                 temperature=payload["temperature"], seed=payload.get("seed"))
            return 200, {"choices": [{"text": text} for text in
                                     sample(synthetic, payload["prompt"], cfg)]}

        server = stub_server(respond)
        provider = ProviderHandle.http(server.url)
        prompt = gen_problem(synthetic.synth_config, 0).question
        got = sample(provider, prompt, SamplingConfig(n=6, seed=5))
        assert [c["seed"] for c in server.calls] == [5, 7, 9]
        assert got == [text for seed in (5, 7, 9)
                       for text in sample(synthetic, prompt, SamplingConfig(n=2, seed=seed))]
        assert got[:3] == sample(provider, prompt, SamplingConfig(n=3, seed=5))
        del server.calls[:]
        assert len(sample(provider, prompt, SamplingConfig(n=3))) == 3
        assert ["seed" in c for c in server.calls] == [False, False]

    def test_empty_choices_short_response(self, stub_server):
        server = stub_server(lambda payload: (200, {"choices": []}))
        provider = ProviderHandle.http(server.url)
        with pytest.raises(ShortResponseError):
            sample(provider, "prompt", SamplingConfig(n=2))

    def test_retries_then_provider_error(self, stub_server):
        server = stub_server(lambda payload: (500, {"oops": True}))
        provider = ProviderHandle.http(server.url)
        with pytest.raises(ProviderError) as err:
            sample(provider, "prompt", SamplingConfig(n=1))
        assert len(err.value.attempts) == genclient.RETRY_ATTEMPTS
        assert len(server.calls) == genclient.RETRY_ATTEMPTS

    def test_unreachable_endpoint(self):
        provider = ProviderHandle.http("http://127.0.0.1:9/v1/completions")
        with pytest.raises(ProviderError):
            sample(provider, "prompt", SamplingConfig(n=1))

    def test_retry_recovers(self, stub_server):
        state = {"calls": 0}

        def respond(payload):
            state["calls"] += 1
            if state["calls"] == 1:
                return 503, {}
            return 200, {"choices": [{"text": "ok"}]}

        server = stub_server(respond)
        provider = ProviderHandle.http(server.url)
        assert sample(provider, "p", SamplingConfig(n=1)) == ["ok"]

    def test_api_key_header(self, stub_server, monkeypatch):
        server = stub_server(lambda payload: (200, {"choices": [{"text": "x"}]}))
        monkeypatch.setenv(genclient.API_KEY_ENV, "sekret")
        provider = ProviderHandle.http(server.url)
        assert sample(provider, "p", SamplingConfig(n=1)) == ["x"]
        (headers,) = server.headers
        assert headers["Authorization"] == "Bearer sekret"
        assert headers["Content-Type"] == "application/json"

    @pytest.mark.parametrize("status", [301, 302, 303])
    def test_redirect_is_not_followed(self, stub_server, monkeypatch, status):
        """A redirect fails the attempt: neither the prompt nor the API key
        reaches its target, and no choices come back from there."""
        target = stub_server(lambda payload: (200, {"choices": [{"text": "elsewhere"}]}))
        server = stub_server(lambda payload: (status, {}, {"Location": target.url}))
        monkeypatch.setenv(genclient.API_KEY_ENV, "secret-token")
        provider = ProviderHandle.http(server.url)
        with pytest.raises(ProviderError) as err:
            sample(provider, "prompt", SamplingConfig(n=1))
        assert len(err.value.attempts) == genclient.RETRY_ATTEMPTS
        assert all(f"HTTP Error {status}" in a for a in err.value.attempts)
        assert len(server.calls) == genclient.RETRY_ATTEMPTS
        assert target.calls == []

    def test_one_opener_per_process(self, stub_server, monkeypatch):
        import urllib.request

        real, built = urllib.request.build_opener, []
        monkeypatch.setattr(genclient, "_opener", None)
        monkeypatch.setattr(urllib.request, "build_opener",
                            lambda *handlers: built.append(handlers) or real(*handlers))
        server = stub_server(lambda payload: (200, {"choices": [{"text": "x"}]}))
        provider = ProviderHandle.http(server.url, max_in_flight=4)
        assert sample_batch(provider, list("abcdefgh"), SamplingConfig(n=1)) == [["x"]] * 8
        assert len(built) == 1
        # proxy environment variables still apply; built here, no request is sent
        monkeypatch.setattr(genclient, "_opener", None)
        monkeypatch.setenv("http_proxy", "http://127.0.0.1:9")
        assert [h.proxies["http"] for h in genclient._get_opener().handlers
                if isinstance(h, urllib.request.ProxyHandler)] == ["http://127.0.0.1:9"]


# Bodies of a 200 response that are JSON but not {"choices": [{"text": str}, ...]}
MALFORMED_BODIES = [["x"], {"choices": None}, {"choices": ["x"]},
                    {"choices": [{"text": 5}]}]


@pytest.mark.parametrize("body", MALFORMED_BODIES,
                         ids=["list", "choices-null", "choice-not-object", "text-not-str"])
def test_malformed_body_is_itemised_provider_error(stub_server, body):
    server = stub_server(lambda payload: (200, body))
    provider = ProviderHandle.http(server.url, max_in_flight=2)
    results = sample_batch(provider, ["a", "b"], SamplingConfig(n=1))
    assert len(results) == 2
    for result in results:
        assert isinstance(result, ProviderError)
        assert len(result.attempts) == genclient.RETRY_ATTEMPTS
        assert all("ValueError" in a for a in result.attempts)
    problems = [Problem(f"p{i}", f"question {i}", "1") for i in range(3)]
    build = build_rft(problems, provider, SamplingConfig(n=1))
    assert not build.gen and not build.rft
    assert [s.problem_id for s in build.skipped] == ["p0", "p1", "p2"]
    assert all(s.reason.startswith("provider-error: ") for s in build.skipped)


class TestSampleBatch:
    def test_alignment_and_bounded_concurrency(self, stub_server):
        def respond(payload):
            return 200, {"choices": [{"text": f"got:{payload['prompt']}"}]}

        server = stub_server(respond, delay_s=0.03)
        provider = ProviderHandle.http(server.url, max_in_flight=2)
        prompts = [f"p{i}" for i in range(10)]
        results = sample_batch(provider, prompts, SamplingConfig(n=1))
        assert [r[0] for r in results] == [f"got:p{i}" for i in range(10)]
        assert server.peak_concurrency <= 2

    def test_single_failure_itemized(self, stub_server):
        def respond(payload):
            if "FAIL" in payload["prompt"]:
                return 500, {}
            return 200, {"choices": [{"text": "ok"}]}

        server = stub_server(respond)
        provider = ProviderHandle.http(server.url, max_in_flight=4)
        prompts = [f"p{i}" for i in range(9)] + ["FAIL-me"]
        results = sample_batch(provider, prompts, SamplingConfig(n=1))
        assert sum(isinstance(r, ProviderError) for r in results) == 1
        assert isinstance(results[9], ProviderError)
        assert all(r == ["ok"] for r in results[:9])

    def test_all_failed_batch_error(self, stub_server):
        server = stub_server(lambda payload: (500, {}))
        provider = ProviderHandle.http(server.url, max_in_flight=4)
        results = sample_batch(provider, ["a", "b", "c"], SamplingConfig(n=1))
        assert len(results) == 3
        assert all(isinstance(r, ProviderError) for r in results)

    def test_alignment_when_later_prompts_finish_first(self, stub_server):
        finished = []

        def respond(payload):
            i = int(payload["prompt"][1:])
            time.sleep(0.04 * (6 - i))  # the later the prompt, the sooner it answers
            finished.append(i)
            return 200, {"choices": [{"text": f"got:p{i}"}]}

        server = stub_server(respond)
        provider = ProviderHandle.http(server.url, max_in_flight=6)
        prompts = [f"p{i}" for i in range(6)]
        results = sample_batch(provider, prompts, SamplingConfig(n=1))
        assert finished != sorted(finished)
        assert results == [[f"got:p{i}"] for i in range(6)]

    def test_empty_prompts_rejected(self):
        with pytest.raises(ValueError):
            sample_batch(synth_provider(), [], SamplingConfig(n=1))

    def test_synthetic_batch_alignment(self):
        provider = synth_provider(eps=0.2, seed=1)
        problems = [gen_problem(provider.synth_config, i) for i in range(6)]
        prompts = [p.question for p in problems]
        results = sample_batch(provider, prompts, SamplingConfig(n=2, seed=4))
        singles = [sample(provider, p, SamplingConfig(n=2, seed=4)) for p in prompts]
        assert results == singles


# ---------------------------------------------------------------------------
# The synthetic provider against its documented draw protocol, written out
# here without synthworld: questions are read and steps evaluated by the
# oracles module. A prompt whose prefix is still right builds one generator,
# default_rng(stable_seed(cfg.seed, "complete", problem id, (seed, prompt))),
# the problem id derived from the question text, and takes its completions
# from it in index order: while the chain is still right, one random() per
# step, and on a hit (below epsilon, which is 0 at temperature 0) one
# integers(0, 6) into the deltas.
# A prefix that already went wrong takes no draw: every completion propagates
# it with exact arithmetic.

_REF_DELTAS = (-3, -2, -1, 1, 2, 3)


def _reference_sample(p, prefix, epsilon, synth_seed, seed, prompt, n):
    value, ops = question_ops(p.question)
    wrong = False
    for (symbol, operand), line in zip(ops, prefix):
        declared = int(line.split("=")[1].rstrip("."))
        wrong = wrong or declared != evaluate(symbol, value, operand)
        value = declared
    problem_id = f"q-{stable_seed(p.question) % 10**12:012d}"
    rng = None if wrong else np.random.default_rng(
        stable_seed(synth_seed, "complete", problem_id, (seed, prompt)))
    texts = []
    for _ in range(n):
        v, hit, lines = value, wrong, []
        for symbol, operand in ops[len(prefix):]:
            declared = evaluate(symbol, v, operand)
            if not hit and rng.random() < epsilon:
                declared += _REF_DELTAS[int(rng.integers(0, 6))]
                hit = True
            lines.append(f"{v}{symbol}{operand}={declared}.")
            v = declared
        texts.append("\n".join([*lines, f"The answer is {v}."]))
    return texts


_PROMPTS = dict(idx=st.integers(0, 50), t=st.integers(1, 6),
                epsilon=st.sampled_from([0.0, 0.3, 1.0]),
                error_at=st.none() | st.integers(1, 6), delta=st.sampled_from([-3, -1, 2]),
                cut=st.integers(0, 6), temperature=st.sampled_from([0.0, 0.7]),
                seed=st.none() | st.integers(0, 2**40))


def _prompt(idx, t, epsilon, error_at, delta, cut):
    cfg = SynthConfig(t=t, epsilon=epsilon, seed=idx % 3)
    p = gen_problem(cfg, idx)
    if error_at is None or error_at > t:
        steps = correct_rationale(p).steps
    else:
        steps = trace_with_error(p, error_at, delta).steps
    prefix = list(steps[:min(cut, t)])
    return cfg, p, prefix, "\n".join([p.question, *prefix])


@given(**_PROMPTS, n=st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_sample_equals_per_prompt_reference_hypothesis(idx, t, epsilon, error_at, delta,
                                                       cut, temperature, seed, n):
    cfg, p, prefix, prompt = _prompt(idx, t, epsilon, error_at, delta, cut)
    got = sample(ProviderHandle.synthetic(cfg), prompt,
                 SamplingConfig(n=n, temperature=temperature, seed=seed))
    assert got == _reference_sample(p, prefix, epsilon if temperature else 0.0,
                                    cfg.seed, seed, prompt, n)


@given(**_PROMPTS, n=st.integers(1, 12), k=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_sample_draws_nest_hypothesis(idx, t, epsilon, error_at, delta, cut, temperature,
                                      seed, n, k):
    cfg, _, _, prompt = _prompt(idx, t, epsilon, error_at, delta, cut)
    k = min(k, n)
    provider = ProviderHandle.synthetic(cfg)
    large = sample(provider, prompt, SamplingConfig(n=n, temperature=temperature, seed=seed))
    small = sample(provider, prompt, SamplingConfig(n=k, temperature=temperature, seed=seed))
    assert large[:k] == small


def test_wrong_prefix_builds_no_generator(monkeypatch, tmp_path):
    provider = synth_provider(eps=0.5, seed=2)
    p = gen_problem(provider.synth_config, 1)
    bad = trace_with_error(p, 2)
    seeded = []

    def counted(*parts):
        seeded.append(parts)
        return np.random.default_rng(stable_seed(*parts))

    monkeypatch.setattr(synthworld, "rng_for", counted)
    # a wrong prefix builds none
    for cut in (2, 3):
        prompt = "\n".join([p.question, *bad.steps[:cut]])
        texts = sample(provider, prompt, SamplingConfig(n=5, seed=1))
        assert len(texts) == 5 and len(set(texts)) == 1
    assert seeded == []
    # a prefix that is still right builds exactly one, whatever n
    for n in (1, 5, 32):
        seeded.clear()
        sample(provider, p.question + "\n" + bad.steps[0], SamplingConfig(n=n))
        assert len(seeded) == 1 and seeded[0][1] == "complete"
    # synth --samples builds one per problem
    seeded.clear()
    assert main(["--seed", "0", "--out", str(tmp_path), "synth", "--problems", "3",
                 "--samples", "5"]) == 0
    assert [parts[1] for parts in seeded].count("draw") == 3
