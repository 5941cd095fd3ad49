package repro.attack

import java.nio.file.Files

import repro.{SparkSpec, TestUtil}
import repro.baseline.NaiveSqlBaseline
import repro.core._
import repro.events.EventStore

/** The full storage path: events written to the partitioned store, queried
  * through [[StorePath]] with partition pruning — results must match the
  * in-memory execution, and pruning must actually reduce scanned files.
  */
class StoreIntegrationSpec extends SparkSpec {

  private lazy val (storeDir, events) = {
    val dir = Files.createTempDirectory("aiql-store").toString
    val df = AttackDataGen.events(spark, sf = 0.004, seed = 7)
    EventStore.write(df, dir)
    (dir, EventStore.read(spark, dir).cache())
  }

  /** Run `f` on a store-backed engine, then release what it pinned, so
    * every test starts from an empty hot-partition cache.
    */
  private def withStore[A](conf: AiqlConf = AiqlConf(), dir: String = storeDir)(f: Aiql => A): A = {
    val aiql = new Aiql(spark, StorePath(dir), conf)
    try f(aiql) finally aiql.close()
  }
  private lazy val memAiql = new Aiql(spark, InMemory(events))

  for (name <- Seq("q01", "q04", "q08", "q10", "q19", "q20")) {
    test(s"$name store-backed execution equals in-memory execution") {
      val q = InvestigationQueries.byName(name)
      withStore()(a => TestUtil.assertSameRows(a.query(q.aiql), memAiql.query(q.aiql), name))
    }
  }

  test("partition pruning does not change results") {
    val q = InvestigationQueries.byName("q04")
    withStore(AiqlConf(partitionPruning = true)) { pruned =>
      withStore(AiqlConf(partitionPruning = false)) { full =>
        TestUtil.assertSameRows(pruned.query(q.aiql), full.query(q.aiql), "pruning")
      }
    }
  }

  test("q04, q19 and q20 pin each (agent, day) partition once between them") {
    // a private copy of the store: no frame another test left cached can
    // stand in for a second copy of a partition
    val copy = Files.createTempDirectory("aiql-store-copy").toFile
    org.apache.commons.io.FileUtils.copyDirectory(new java.io.File(storeDir), copy)
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    withStore(dir = copy.toString) { aiql =>
      for (n <- Seq("q04", "q19", "q20"))
        aiql.query(InvestigationQueries.byName(n).aiql).collect()
      assert(aiql.loader.pinned == (1 to 4).map(a => (a, "2023-08-01")).toSet)
      val persisted = sc.getPersistentRDDs.keySet -- before
      assert(persisted.size == 4, s"persisted frames: $persisted")
    }
  }

  test("an agent with no stored partition gives the baseline's empty rows") {
    val q = InvestigationQueries.byName("q04").aiql.replace("agentid = 4", "agentid = 99")
    withStore() { aiql =>
      val got = aiql.query(q)
      TestUtil.assertSameRows(got, new NaiveSqlBaseline(spark, events).execute(q), "agent 99")
      assert(got.isEmpty)
      assert(aiql.loader.pinned.isEmpty)
    }
  }

  test("global constraints prune the store to one agent-day") {
    val pruned = EventStore.readPruned(spark, storeDir, Some(Seq(4)), Some(Seq("2023-08-01")))
    // count data files on disk (the cached store read would otherwise be
    // substituted into an identical plan, hiding the file relation)
    import scala.jdk.CollectionConverters._
    val onDisk = Files.walk(java.nio.file.Paths.get(storeDir)).iterator.asScala
      .count(_.toString.endsWith(".parquet"))
    assert(pruned.inputFiles.length * 4 < onDisk,
      s"pruned=${pruned.inputFiles.length} onDisk=$onDisk")
    assert(pruned.inputFiles.forall(f => f.contains("agent_id=4") && f.contains("day=2023-08-01")))
  }

  test("store dedup keeps the attack trace intact") {
    val q = InvestigationQueries.byName("q13")
    withStore()(a => assert(TestUtil.containsBinding(a.query(q.aiql), q.expect)))
  }
}
