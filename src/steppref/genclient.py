"""Uniform completion sampling over two backends.

A ``ProviderHandle`` holds exactly one of them, which decides how it samples:
  * ``endpoint_url`` -- an OpenAI-style completions server, reached with the
    stdlib ``urllib.request``: POST a JSON body with prompt/n/temperature/
    max_tokens/stop (the last two fixed at ``MAX_TOKENS`` and ``STOP``), read
    back ``choices[].text``. If the server caps ``n`` the client loops until
    it has collected n choices. Each follow-up request carries seed
    ``seed + len(collected)`` (and no seed when the caller gave none), so a
    seeded server does not send its first choices again. No redirect is
    followed, so a request and its API key never reach a second URL: a 3xx
    status fails the attempt like any status >= 400. Exponential backoff
    retries a transport error, such a status and a body other than
    ``{"choices": [{"text": str}]}``.
  * ``synth_config`` -- the in-repo toy solver. The prompt contract is: first
    line is the question, any following lines are solution steps already
    taken. Completions are a function of (seed, prompt): one
    ``synthworld.complete_from`` call per prompt, whose draws come in index
    order from one generator, so the first k completions of a larger draw
    equal a smaller draw (nested sampling holds by construction). From a
    prefix that already went wrong they do not depend on the seed either, so
    the provider builds one completion and returns it n times.

``sample_batch`` fans HTTP prompts out over a thread pool bounded by the
provider's ``max_in_flight``; synthetic prompts, pure Python, run inline.
The HTTP client (``urllib.request``, ``http.client``) and the thread pool
are imported by the first HTTP request and the first HTTP batch, so a
synthetic run never loads them.
First-pit exploration sends all unresolved prefixes of one depth as one
batch, so its HTTP requests overlap. Each per-prompt failure is a
``GenClientError`` reported in place, so one bad prompt never aborts the
batch: a failure after retries (``ProviderError``), a short response,
or a prompt the synthetic provider cannot continue (``PromptError``:
a question off the template, a malformed or off-problem prefix step, or a
number too long to convert).
The result is always the per-prompt list, even when every prompt failed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import threading
import time
from dataclasses import dataclass

from . import synthworld
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
    """Transport, status or body failure after bounded retries. The message ends
    with the last attempt's cause; `attempts` logs every attempt."""

    def __init__(self, message: str, attempts: list[str] | None = None):
        super().__init__(message)
        self.attempts = attempts or []


class ShortResponseError(GenClientError):
    """The endpoint keeps returning fewer choices than requested."""


class PromptError(GenClientError):
    """The synthetic provider cannot continue this prompt: the question is not
    a template question, a prefix step is malformed or off the problem, or a
    number is too long for int() to read or str() to write."""


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
        if not math.isfinite(self.temperature):  # NaN passes the check above
            raise ValueError("temperature must be finite")


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

    # max_in_flight's default is the field's: the class body still binds that name
    @classmethod
    def http(cls, endpoint_url: str, model_name: str | None = None,
             max_in_flight: int = max_in_flight) -> "ProviderHandle":
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
    try:
        problem = synthworld.problem_from_question(lines[0])
        return synthworld.complete_from(problem, prefix, cfg, (sampling.seed, prompt),
                                        sampling.n)
    except ValueError as e:  # QuestionParseError and PrefixError are ones
        raise PromptError(str(e)) from e


def _auth_headers() -> dict[str, str]:
    key = os.environ.get(API_KEY_ENV, "")
    return {"Authorization": f"Bearer {key}"} if key else {}


_opener_lock = threading.Lock()
_opener = None


def _get_opener():
    """The one urllib opener of the process, built by the first HTTP request:
    the default handlers, proxies from the environment included, but with a
    redirect handler that follows nothing, so a 3xx status raises HTTPError."""
    global _opener
    with _opener_lock:
        if _opener is None:
            import urllib.request

            class NoRedirect(urllib.request.HTTPRedirectHandler):
                def redirect_request(self, *args, **kwargs):
                    return None

            _opener = urllib.request.build_opener(NoRedirect)
    return _opener


def _post_once(provider: ProviderHandle, prompt: str, n: int,
               sampling: SamplingConfig) -> list[str]:
    import urllib.request

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
    request = urllib.request.Request(
        provider.endpoint_url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **_auth_headers()})
    with _get_opener().open(request, timeout=REQUEST_TIMEOUT_S) as resp:
        body = json.load(resp)
    choices = body.get("choices") if isinstance(body, dict) else None
    if not (isinstance(choices, list) and all(
            isinstance(c, dict) and isinstance(c.get("text"), str) for c in choices)):
        raise ValueError('response is not {"choices": [{"text": str}, ...]}')
    return [choice["text"] for choice in choices]


def _post_with_retries(provider: ProviderHandle, prompt: str, n: int,
                       sampling: SamplingConfig) -> list[str]:
    import http.client

    attempts: list[str] = []
    delay = BACKOFF_INITIAL_S
    for attempt in range(1, RETRY_ATTEMPTS + 1):
        try:
            return _post_once(provider, prompt, n, sampling)
        except (OSError, http.client.HTTPException, ValueError) as e:
            last = f"{type(e).__name__}: {e}"
            attempts.append(f"attempt {attempt}: {last}")
            if attempt < RETRY_ATTEMPTS:
                time.sleep(delay)
                delay *= 2
    raise ProviderError(
        f"endpoint {provider.endpoint_url} failed after {RETRY_ATTEMPTS} attempts; "
        f"last: {last}",
        attempts,
    )


def _sample_http(provider: ProviderHandle, prompt: str,
                 sampling: SamplingConfig) -> list[str]:
    collected: list[str] = []
    while len(collected) < sampling.n:
        seed = None if sampling.seed is None else sampling.seed + len(collected)
        got = _post_with_retries(provider, prompt, sampling.n - len(collected),
                                 dataclasses.replace(sampling, seed=seed))
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

    def sample_or_error(prompt: str) -> list[str] | GenClientError:
        try:
            return sample(provider, prompt, cfg)
        except GenClientError as e:
            return e

    if provider.synth_config is not None:
        # The toy solver is pure Python: threads would only take turns on the
        # interpreter lock, so its prompts run inline.
        return [sample_or_error(prompt) for prompt in prompts]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=provider.max_in_flight) as pool:
        return list(pool.map(sample_or_error, prompts))  # map yields in prompt order
