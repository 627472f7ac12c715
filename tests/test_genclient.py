import threading

import pytest

import steppref.genclient as genclient
from steppref.extraction import extract_answer, style_for
from steppref.genclient import (
    PromptError,
    ProviderError,
    ProviderHandle,
    SamplingConfig,
    ShortResponseError,
    sample,
    sample_batch,
)
from steppref.synthworld import SynthConfig, gen_problem, simulate_solution


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

    def test_provider_needs_exactly_one_backend(self):
        with pytest.raises(ValueError):
            ProviderHandle()
        with pytest.raises(ValueError):
            ProviderHandle(endpoint_url="http://x", synth_config=SynthConfig())


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
        assert extract_answer(text, style_for(p.style)) == p.gold_answer

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
        bad_prompts = [
            "What is two plus two?",  # not a template question
            p.question + "\n" + gold.steps[0] + "\ntwo plus two is five.",  # step grammar
            p.question + "\n" + "\n".join(gold.steps * 2),  # more steps than the problem
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
        seen = {}

        def respond(payload):
            return 200, {"choices": [{"text": "x"}]}

        server = stub_server(respond)
        monkeypatch.setenv(genclient.API_KEY_ENV, "sekret")
        provider = ProviderHandle.http(server.url)
        # header check happens inside the handler; easiest is to assert via a
        # second server capturing headers is overkill -- the env var path is
        # unit-tested through _auth_headers directly.
        assert genclient._auth_headers() == {"Authorization": "Bearer sekret"}
        sample(provider, "p", SamplingConfig(n=1))


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
