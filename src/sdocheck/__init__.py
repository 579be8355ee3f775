"""sdocheck: verify schema.org annotations, validate them against page content.

Typical flow, the pipeline behind ``sdocheck validate``:

    from sdocheck import content, pipeline, vocab

    vocabulary = vocab.load_default_vocabulary()
    report = pipeline.run(page_bytes, base_url, vocabulary,
                          validate=content.ValidationConfig())
"""

__version__ = "0.1.0"
