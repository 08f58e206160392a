import checkout

checkout.use_sources()
