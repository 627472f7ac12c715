"""Uniform completion sampling over two backends.

A ``ProviderHandle`` holds exactly one of them, which decides how it samples:
  * ``endpoint_url`` -- an OpenAI-style completions server: POST a JSON
    body with prompt/n/temperature/max_tokens/stop (the last two fixed at
    ``MAX_TOKENS`` and ``STOP``), read back
    ``choices[].text``. If the server caps ``n`` the client loops until it
    has collected n choices. Requests retry with exponential backoff.
  * ``synth_config`` -- the in-repo toy solver. The prompt contract is: first
    line is the question, any following lines are solution steps already
    taken. Completions are a pure function of (seed, prompt, index), which
    also means the first k completions of a larger draw are always the
    same as a smaller draw (nested sampling falls out for free).

``sample_batch`` fans HTTP prompts out over a thread pool bounded by the
provider's ``max_in_flight``; synthetic prompts, pure Python, run inline.
First-pit exploration sends all unresolved prefixes of one depth as one
batch, so its HTTP requests overlap. Each per-prompt failure is a
``GenClientError`` reported in place, so one bad prompt never aborts the
batch: a transport failure after retries (``ProviderError``), a short
response, or a prompt the synthetic provider cannot continue (``PromptError``:
a question off the template, or a malformed or off-problem prefix step).
The result is always the per-prompt list, even when every prompt failed.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import requests

from . import synthworld
from .rng import stable_seed
from .synthworld import SynthConfig

API_KEY_ENV = "STEPPREF_API_KEY"
RETRY_ATTEMPTS = 3
BACKOFF_INITIAL_S = 1.0
REQUEST_TIMEOUT_S = 60.0
MAX_TOKENS = 512
# Stop at the dataset record separator, so completions never bleed across
# problems.
STOP = ("\n\n",)


class GenClientError(Exception):
    """Base class for sampling failures."""


class ProviderError(GenClientError):
    """Transport-level failure after bounded retries; carries the attempt log."""

    def __init__(self, message: str, attempts: list[str] | None = None):
        super().__init__(message)
        self.attempts = attempts or []


class ShortResponseError(GenClientError):
    """The endpoint keeps returning fewer choices than requested."""


class PromptError(GenClientError):
    """The synthetic provider cannot continue this prompt: the question is not
    a template question, or a prefix step is malformed or off the problem."""


@dataclass(frozen=True)
class SamplingConfig:
    n: int = 100
    temperature: float = 0.7
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class ProviderHandle:
    """A completions backend: an HTTP endpoint when `endpoint_url` is set, the
    synthetic solver when `synth_config` is set. Exactly one of them is."""

    endpoint_url: str | None = None
    model_name: str | None = None
    synth_config: SynthConfig | None = None
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        if (self.endpoint_url is None) == (self.synth_config is None):
            raise ValueError("exactly one of endpoint_url / synth_config must be set")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")

    @classmethod
    def http(cls, endpoint_url: str, model_name: str | None = None,
             max_in_flight: int = 4) -> "ProviderHandle":
        return cls(endpoint_url=endpoint_url, model_name=model_name,
                   max_in_flight=max_in_flight)

    @classmethod
    def synthetic(cls, synth_config: SynthConfig) -> "ProviderHandle":
        return cls(synth_config=synth_config)


def _sample_synthetic(cfg: SynthConfig, prompt: str, sampling: SamplingConfig) -> list[str]:
    lines = prompt.split("\n")
    prefix = [ln for ln in lines[1:] if ln.strip()]
    if sampling.temperature == 0:
        # Greedy decoding of the toy solver is its error-free chain.
        cfg = dataclasses.replace(cfg, epsilon=0.0)
    base = sampling.seed if sampling.seed is not None else 0
    try:
        problem = synthworld.problem_from_question(lines[0])
        return [
            synthworld.complete_from(problem, prefix, cfg, stable_seed(base, prompt, i))
            for i in range(sampling.n)
        ]
    except (synthworld.QuestionParseError, synthworld.StepGrammarError,
            synthworld.PrefixError) as e:
        raise PromptError(str(e)) from e


def _auth_headers() -> dict[str, str]:
    key = os.environ.get(API_KEY_ENV, "")
    return {"Authorization": f"Bearer {key}"} if key else {}


def _post_once(provider: ProviderHandle, prompt: str, n: int,
               sampling: SamplingConfig) -> list[str]:
    payload: dict = {
        "prompt": prompt,
        "n": n,
        "temperature": sampling.temperature,
        "max_tokens": MAX_TOKENS,
        "stop": list(STOP),
    }
    if provider.model_name:
        payload["model"] = provider.model_name
    if sampling.seed is not None:
        payload["seed"] = sampling.seed
    resp = requests.post(provider.endpoint_url, json=payload,
                         headers=_auth_headers(), timeout=REQUEST_TIMEOUT_S)
    if resp.status_code >= 500 or resp.status_code == 429:
        raise requests.HTTPError(f"retryable status {resp.status_code}")
    resp.raise_for_status()
    body = resp.json()
    return [choice["text"] for choice in body["choices"]]


def _post_with_retries(provider: ProviderHandle, prompt: str, n: int,
                       sampling: SamplingConfig) -> list[str]:
    attempts: list[str] = []
    delay = BACKOFF_INITIAL_S
    for attempt in range(1, RETRY_ATTEMPTS + 1):
        try:
            return _post_once(provider, prompt, n, sampling)
        except (requests.RequestException, KeyError, ValueError) as e:
            attempts.append(f"attempt {attempt}: {type(e).__name__}: {e}")
            if attempt < RETRY_ATTEMPTS:
                time.sleep(delay)
                delay *= 2
    raise ProviderError(
        f"endpoint {provider.endpoint_url} failed after {RETRY_ATTEMPTS} attempts",
        attempts,
    )


def _sample_http(provider: ProviderHandle, prompt: str,
                 sampling: SamplingConfig) -> list[str]:
    collected: list[str] = []
    while len(collected) < sampling.n:
        got = _post_with_retries(provider, prompt, sampling.n - len(collected), sampling)
        if not got:
            raise ShortResponseError(
                f"endpoint returned no choices; have {len(collected)} of {sampling.n}"
            )
        collected.extend(got)
    return collected[: sampling.n]


def sample(provider: ProviderHandle, prompt: str, cfg: SamplingConfig) -> list[str]:
    """Exactly cfg.n completions for one prompt, in request order."""
    if provider.synth_config is not None:
        return _sample_synthetic(provider.synth_config, prompt, cfg)
    return _sample_http(provider, prompt, cfg)


def sample_batch(
    provider: ProviderHandle,
    prompts: list[str],
    cfg: SamplingConfig,
) -> list[list[str] | GenClientError]:
    """Per-prompt completion lists, positionally aligned with `prompts`.

    Failed prompts hold their GenClientError in place of a list.
    """
    if not prompts:
        raise ValueError("prompts must be non-empty")
    results: list[list[str] | GenClientError] = [None] * len(prompts)  # type: ignore[list-item]

    def work(i: int) -> None:
        try:
            results[i] = sample(provider, prompts[i], cfg)
        except GenClientError as e:
            results[i] = e

    if provider.synth_config is not None:
        # The toy solver is pure Python: threads would only take turns on the
        # interpreter lock, so its prompts run inline.
        for i in range(len(prompts)):
            work(i)
    else:
        with ThreadPoolExecutor(max_workers=provider.max_in_flight) as pool:
            list(pool.map(work, range(len(prompts))))
    return results
